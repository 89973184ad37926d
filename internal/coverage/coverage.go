// Package coverage implements the max-coverage machinery that turns a
// collection of random RR sets into a seed set: an inverted index from
// node to the RR sets containing it, the greedy algorithm of the paper's
// Algorithm 1 with CELF-style lazy marginal evaluation, the Revised
// Greedy out-degree tie-break of Algorithm 6, and the coverage upper
// bound Λᵘ (the maxMC prefix bound feeding Equation 2).
//
// # The exact engine
//
// *Index keeps its RR sets in S shards. Each shard owns its sets in a
// shard-local rrset.Arena — the batcher generates straight into it, so
// no copy from generation buffers into a store ever happens — plus a
// shard-local CSR node→sets index and shard-local covered stamps.
// Shards never merge: every query the greedy algorithms issue is an
// integer sum over shards.
//
// # Why this is exact and shard-count independent
//
// Each RR set's content is a pure function of (seed, global index) —
// the batcher reseeds a per-set RNG stream — and the batcher places the
// set with global index idx in shard ShardOf(idx, S) = idx mod S.
// Degree, CoverageOf, every CELF marginal gain, and the Λᵘ prefix bound
// are sums of per-set indicator terms, and integer addition is
// associative and commutative, so ANY partition of the sets into shards
// yields the same totals. The index therefore returns byte-identical
// seeds, stats, and certified bounds for any shard count and any worker
// bound, which the golden, equivalence and conformance suites pin.
//
// # Reduce ordering contract
//
// Parallel passes aggregate through per-lane partials that the
// coordinator folds with reducePartials: a fixed pairwise tree (fold
// p[i] += p[i+h] with halving h), never a racy accumulation. For integer
// sums the order cannot change the result; the fixed tree is still the
// documented contract so a float-valued reduction would inherit a
// deterministic order for free.
//
// # Parallelism shape
//
//   - CSR rebuilds: each dirty shard rebuilds its own index (a delta
//     counting sort) with no cross-shard data; lanes pick up shards
//     round-robin.
//   - First CELF round: node-range partition, gains[v] summed over all
//     shard heads, entries filled through prefix-summed slots so the
//     entry order matches the serial loop exactly.
//   - Every later CELF round: a stale heap top's marginal is recomputed
//     as per-shard partials (each lane walks only its shards' posting
//     lists against its shards' covered stamps — disjoint state), and
//     the winning seed's covered-bit update fans out the same way, each
//     recorded as timeline.PhaseReduce.
package coverage

import (
	"slices"
	"time"

	"subsim/internal/obs"
	"subsim/internal/obs/timeline"
	"subsim/internal/rrset"
)

// ShardOf is the shard-assignment function: the RR set with index idx
// lives in shard idx mod shards. Batcher.Fill routes by generation
// index, Add and AbsorbArena by collection index, so placement never
// depends on scheduling, only on (index, shard count).
func ShardOf(idx int64, shards int) int {
	return int(idx % int64(shards))
}

// covShard is one shard: its arena (the store segment the batcher
// generates into), its CSR inverted index over the arena's sets
// (shard-local set ids = arena positions), and its covered stamps.
type covShard struct {
	arena rrset.Arena

	// CSR inverted index over the first `indexed` arena sets; the
	// posting list of node v is postings[heads[v]:heads[v+1]],
	// ascending by shard-local set id.
	heads    []int64
	postings []int32
	indexed  int
	cursors  []int64 // counting-sort scratch, len n, zeroed between builds

	covered []uint32 // per-set stamp; covered in run r iff covered[i] == r
	run     uint32

	// Rebuild double buffers: the previous generation's heads and
	// postings, swapped with the live ones on every delta build so the
	// steady-state rebuild allocates nothing.
	headsScratch []int64
	postScratch  []int32
}

// Index is the exact coverage engine: an append-only collection of RR
// sets in S shards with a per-shard node→sets inverted index. Greedy
// selection runs do not mutate the index permanently, so the same Index
// can be queried repeatedly as it grows (the doubling loops of
// IMM/OPIM-C/HIST rely on this). Each shard's CSR is rebuilt lazily on
// the first query after a batch of appends, and each rebuild only scans
// the newly appended delta — old posting lists are block-copied — so
// across the doubling rounds every posting is scanned O(1) times
// amortised.
//
// Index is not safe for concurrent mutation. The shard count is
// structural — fixed at construction, it decides data placement — while
// SetWorkers only bounds how many lanes walk the shards; neither ever
// changes a result.
type Index struct {
	n       int
	outDeg  []int32 // optional out-degrees for the Revised-Greedy tie-break
	shards  []covShard
	workers int

	// Absorption log behind Set, kept only with more than one shard:
	// entry f holds the collection positions [fillFirst[f],
	// fillFirst[f+1]), where shard s contributes its arena positions from
	// fillMark[f*S+s] up to the next entry's mark (or the arena's end for
	// the last entry). A fill entry (BeginFill) lists them shard by
	// shard. A run entry (consecutive Add/AbsorbArena calls) routes
	// collection index i to shard i mod S with no gaps, so it lists them
	// in append order and one entry serves the whole run.
	fillFirst []int
	fillMark  []int
	fillRun   []bool
	runOpen   bool // the last entry is a run still being appended to
	runNext   int  // collection index of the open run's next set

	// Selection scratch reused across SelectSeeds runs: CELF heap
	// backing, the Λᵘ walk's frontier, the initial-gain staging array of
	// the partitioned first round and per-lane reduce partials (also
	// that round's entry-slot bases).
	selEntries  []celfEntry
	selFrontier []int32
	selGains    []int64
	partial     []int64

	// Optional observability hooks (nil-safe): rebuild duration (total
	// and split by the serial/parallel path taken across shards) and
	// postings placed per rebuild.
	buildHist    *obs.Histogram
	buildSerHist *obs.Histogram
	buildParHist *obs.Histogram
	entriesCtr   *obs.Counter

	// tl, when non-nil, receives per-worker interval records for the
	// index-build, initial-gains, select and reduce phases. A nil tl (the
	// default) makes every record site a no-op through the nil-safe ring.
	tl *timeline.Timeline

	// Cached pprof/runtime-trace sections for the hot phases, refreshed
	// when the worker count changes; nil on an uninstrumented index.
	secBuild  *obs.PhaseSection
	secGains  *obs.PhaseSection
	secSelect *obs.PhaseSection
	secReduce *obs.PhaseSection
}

// NewIndex returns an empty index over n nodes with the given shard
// count (clamped to >= 1). outDeg, when non-nil, supplies the
// out-degrees used by the Revised-Greedy tie-break; it must have length
// n.
func NewIndex(n int, outDeg []int32, shards int) *Index {
	if outDeg != nil && len(outDeg) != n {
		panic("coverage: outDeg length mismatch")
	}
	if shards < 1 {
		shards = 1
	}
	x := &Index{
		n:       n,
		outDeg:  outDeg,
		shards:  make([]covShard, shards),
		workers: 1,
	}
	for s := range x.shards {
		sh := &x.shards[s]
		sh.heads = make([]int64, n+1)
		sh.cursors = make([]int64, n)
	}
	return x
}

// NewIndexObs is NewIndex wired to m's index-build instruments and, when
// m carries one, its execution timeline; a nil m yields a plain,
// uninstrumented index.
func NewIndexObs(n int, outDeg []int32, shards int, m *obs.MetricSet) *Index {
	x := NewIndex(n, outDeg, shards)
	if m != nil {
		x.SetBuildMetrics(&m.IndexBuild, &m.IndexBuildSerial, &m.IndexBuildParallel, &m.IndexEntries)
		x.SetTimeline(m.Timeline)
	}
	return x
}

// NumShards returns the structural shard count.
func (x *Index) NumShards() int { return len(x.shards) }

// BeginFill opens a new fill: the sets appended to the shard arenas
// until the next BeginFill (or Add/AbsorbArena call) become
// Set(NumSets())… in shard order. A caller that generates into
// ShardArena directly must call it first.
func (x *Index) BeginFill() {
	if len(x.shards) == 1 {
		return // one shard: collection order is arena order
	}
	x.openEntry(false)
}

// openEntry starts an absorption-log entry at the end of the collection,
// reusing the last entry when it is still empty (entry starts stay
// strictly increasing, which Set's binary search relies on).
func (x *Index) openEntry(run bool) {
	x.runOpen = false
	first := x.NumSets()
	if f := len(x.fillFirst); f > 0 && x.fillFirst[f-1] == first {
		x.fillRun[f-1] = run // still empty: its marks are current
		return
	}
	x.fillFirst = append(x.fillFirst, first)
	x.fillRun = append(x.fillRun, run)
	for s := range x.shards {
		x.fillMark = append(x.fillMark, x.shards[s].arena.Len())
	}
}

// routed returns the shard arena of the next set absorbed by collection
// index (Add, AbsorbArena), extending the open run entry or opening one.
func (x *Index) routed() *rrset.Arena {
	shards := len(x.shards)
	if shards == 1 {
		return &x.shards[0].arena
	}
	if !x.runOpen {
		x.openEntry(true)
		x.runOpen = true
		x.runNext = x.fillFirst[len(x.fillFirst)-1]
	}
	a := &x.shards[ShardOf(int64(x.runNext), shards)].arena
	x.runNext++
	return a
}

// ShardArena returns shard s's arena, the store segment the batcher
// generates into directly (after BeginFill). The caller appends
// committed sets and may DropLast sentinel hits; the shard's CSR picks
// the delta up lazily on the next query.
func (x *Index) ShardArena(s int) *rrset.Arena { return &x.shards[s].arena }

// SetWorkers bounds the internal parallelism of shard rebuilds, the
// initial-gain pass, and the per-round reduces. Values below 1 are
// clamped to 1 (the fully serial default). It never changes any result.
func (x *Index) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	x.workers = w
	x.refreshSections()
}

// Workers returns the configured internal parallelism bound.
func (x *Index) Workers() int { return x.workers }

// SetBuildMetrics attaches observability instruments to the CSR rebuild:
// total observes nanoseconds per rebuild regardless of path, serial and
// parallel observe the same duration split by the path taken, entries
// counts postings placed. All are nil-safe; a nil tracer therefore
// threads through for free.
func (x *Index) SetBuildMetrics(total, serial, parallel *obs.Histogram, entries *obs.Counter) {
	x.buildHist = total
	x.buildSerHist = serial
	x.buildParHist = parallel
	x.entriesCtr = entries
	x.refreshSections()
}

// SetTimeline attaches a per-worker execution timeline: the CSR
// rebuilds, the initial-gains pass, the greedy-select loop and the
// per-round reduces then leave interval records on the worker rings
// (see internal/obs/timeline). A nil tl — or never calling this — keeps
// every record site a zero-cost no-op. Must not be called while a query
// is in flight.
func (x *Index) SetTimeline(tl *timeline.Timeline) {
	x.tl = tl
	x.refreshSections()
}

// refreshSections rebinds the cached pprof/trace sections to the current
// worker count. Sections are only materialised once any instrumentation
// is attached, so a plain NewIndex stays label-free.
func (x *Index) refreshSections() {
	if x.buildHist == nil && x.tl == nil {
		return
	}
	x.secBuild = obs.Section("index-build", x.workers)
	x.secGains = obs.Section("select-gains", x.workers)
	x.secSelect = obs.Section("select", 1)
	x.secReduce = obs.Section("reduce", x.workers)
}

// ring returns worker w's timeline ring (nil — the disabled ring — when
// no timeline is attached).
func (x *Index) ring(w int) *timeline.Ring { return x.tl.Worker(w) }

// N returns the number of nodes the index is defined over.
func (x *Index) N() int { return x.n }

// NumSets returns the number of RR sets across all shards.
func (x *Index) NumSets() int {
	total := 0
	for s := range x.shards {
		total += x.shards[s].arena.Len()
	}
	return total
}

// Set returns the i-th RR set in absorption order as a read-only view
// into its shard arena: fill by fill, within one Batcher fill shard by
// shard, and sets absorbed through Add/AbsorbArena in append order. The
// sets one fill added are therefore exactly Set(NumSets before the
// fill) … Set(NumSets()-1). With one shard this is plain append order.
func (x *Index) Set(i int) []int32 {
	if len(x.shards) == 1 {
		return x.shards[0].arena.Set(i)
	}
	// The entry holding i: the last f with fillFirst[f] <= i.
	f, found := slices.BinarySearch(x.fillFirst, i)
	if !found {
		f--
	}
	shards := len(x.shards)
	off := i - x.fillFirst[f]
	if x.fillRun[f] {
		// Run entry: collection index i sits in shard i mod S, after the
		// run's off/S earlier sets of that shard.
		s := ShardOf(int64(i), shards)
		return x.shards[s].arena.Set(x.fillMark[f*shards+s] + off/shards)
	}
	last := f+1 == len(x.fillFirst)
	for s := range x.shards {
		a := &x.shards[s].arena
		start, end := x.fillMark[f*shards+s], a.Len()
		if !last {
			end = x.fillMark[(f+1)*shards+s]
		}
		if off < end-start {
			return a.Set(start + off)
		}
		off -= end - start
	}
	panic("coverage: set index out of range")
}

// MemoryBytes reports the approximate heap footprint of the shard
// arenas plus their CSR indexes.
func (x *Index) MemoryBytes() int64 {
	var b int64
	for s := range x.shards {
		sh := &x.shards[s]
		b += sh.arena.MemoryBytes()
		b += int64(cap(sh.postings))*4 + int64(cap(sh.heads))*8
	}
	return b
}

// Add absorbs one RR set, routed by ShardOf over its collection index.
// Consecutive Add and AbsorbArena calls share one absorption-log entry,
// so a long run of Adds costs O(1) time and memory per set. The inverted
// index is refreshed lazily on the next query.
func (x *Index) Add(set rrset.RRSet) {
	x.routed().Append(set)
}

// AbsorbArena absorbs a flat arena buffer, skipping sentinel-terminated
// sets and routing each kept set by ShardOf over its collection index,
// like Add. It is the generic ingestion path; Batcher.Fill bypasses it
// by generating into the shard arenas directly.
func (x *Index) AbsorbArena(data []int32, ends []int64, sentinel []bool) int64 {
	var hits int64
	start := int64(0)
	for _, end := range ends {
		if sentinel != nil && end > start && sentinel[data[end-1]] {
			hits++
			start = end
			continue
		}
		x.routed().Append(data[start:end])
		start = end
	}
	return hits
}

// ensureIndexed brings every shard's CSR (and covered stamps) up to
// date with its arena. Dirty shards rebuild independently, so there is
// no merge step; with SetWorkers(w>1) and a large enough total delta the
// rebuilds fan out across lanes, each lane walking shards round-robin.
//
//subsim:parallel
func (x *Index) ensureIndexed() {
	var delta int64
	dirty := 0
	for s := range x.shards {
		sh := &x.shards[s]
		if sh.indexed != sh.arena.Len() {
			dirty++
			delta += sh.deltaNodes()
		}
	}
	if dirty == 0 {
		return
	}
	sec := x.secBuild.Enter()
	start := time.Now() //lint:allow timing (feeds the index-build duration histograms only)

	lanes := x.lanes()
	parallel := lanes > 1 && delta >= int64(parallelBuildMinDelta)
	if parallel {
		x.runTimed(timeline.PhaseIndexBuild, lanes, func(l int) {
			for s := l; s < len(x.shards); s += lanes {
				x.shards[s].build(x.n)
			}
		})
	} else {
		r := x.ring(0)
		t0 := r.Now()
		for s := range x.shards {
			x.shards[s].build(x.n)
		}
		r.Record(timeline.PhaseIndexBuild, t0, r.Now())
	}

	x.entriesCtr.Add(delta)
	ns := time.Since(start).Nanoseconds() //lint:allow timing (feeds the index-build duration histograms only)
	x.buildHist.Observe(ns)
	if parallel {
		x.buildParHist.Observe(ns)
	} else {
		x.buildSerHist.Observe(ns)
	}
	sec.Exit()
}

// deltaNodes returns the number of node ids appended since the shard's
// last build.
func (sh *covShard) deltaNodes() int64 {
	from := int64(0)
	if sh.indexed > 0 {
		from = sh.arena.Ends()[sh.indexed-1]
	}
	return int64(sh.arena.NumNodes()) - from
}

// build is the shard-local delta CSR rebuild: counting pass over the
// delta, prefix-summed heads, block copy of the old posting lists,
// scatter of the delta ids. No-op on a clean shard.
//
//subsim:hotpath
func (sh *covShard) build(n int) {
	total := sh.arena.Len()
	if sh.indexed == total {
		return
	}
	data := sh.arena.Data()
	ends := sh.arena.Ends()
	deltaFrom := int64(0)
	if sh.indexed > 0 {
		deltaFrom = ends[sh.indexed-1]
	}

	// Counting pass over the delta only.
	cnt := sh.cursors // zeroed by the previous build (or construction)
	for _, v := range data[deltaFrom:] {
		cnt[v]++
	}

	// New heads: old per-node length + delta count, prefix-summed.
	if cap(sh.headsScratch) < n+1 {
		sh.headsScratch = make([]int64, n+1)
	}
	newHeads := sh.headsScratch[:n+1]
	var acc int64
	for v := 0; v < n; v++ {
		newHeads[v] = acc
		acc += (sh.heads[v+1] - sh.heads[v]) + cnt[v]
	}
	newHeads[n] = acc
	if int64(cap(sh.postScratch)) < acc {
		newCap := 2 * int64(cap(sh.postScratch))
		if newCap < acc {
			newCap = acc
		}
		sh.postScratch = make([]int32, newCap)
	}
	newPost := sh.postScratch[:acc]

	// Placement pass: block-copy the old posting lists, then scatter the
	// delta ids behind them (ascending shard-local id order keeps every
	// list sorted).
	for v := 0; v < n; v++ {
		oldLen := sh.heads[v+1] - sh.heads[v]
		if oldLen > 0 {
			copy(newPost[newHeads[v]:], sh.postings[sh.heads[v]:sh.heads[v+1]])
		}
		cnt[v] = newHeads[v] + oldLen // becomes the scatter cursor
	}
	pos := deltaFrom
	for id := sh.indexed; id < total; id++ {
		end := ends[id]
		for ; pos < end; pos++ {
			v := data[pos]
			newPost[cnt[v]] = int32(id)
			cnt[v]++
		}
	}
	for v := range cnt {
		cnt[v] = 0
	}

	// Double-buffer swap, then grow the covered stamps (geometrically;
	// fresh sets carry stamp 0, never a live run id).
	sh.headsScratch = sh.heads
	sh.heads = newHeads
	sh.postScratch = sh.postings
	sh.postings = newPost
	sh.indexed = total
	if cap(sh.covered) < total {
		newCap := 2 * cap(sh.covered)
		if newCap < total {
			newCap = total
		}
		grown := make([]uint32, total, newCap)
		copy(grown, sh.covered)
		sh.covered = grown
	} else {
		tail := sh.covered[len(sh.covered):total]
		for i := range tail {
			tail[i] = 0 // recycled capacity may hold stale stamps
		}
		sh.covered = sh.covered[:total]
	}
}

// posting returns the shard's CSR posting list of node v.
func (sh *covShard) posting(v int32) []int32 {
	return sh.postings[sh.heads[v]:sh.heads[v+1]]
}

// newRun starts a fresh covered-stamp run. When the uint32 counter
// wraps, every stamp is cleared so a stale stamp can never alias a live
// run id.
func (sh *covShard) newRun() {
	sh.run++
	if sh.run == 0 {
		for i := range sh.covered {
			sh.covered[i] = 0
		}
		sh.run = 1
	}
}

// marginal returns the shard's contribution to the exact marginal
// coverage of v against its current covered stamps.
//
//subsim:hotpath
func (sh *covShard) marginal(v int32) int64 {
	var g int64
	for _, id := range sh.posting(v) {
		if sh.covered[id] != sh.run {
			g++
		}
	}
	return g
}

// cover stamps every uncovered set of v's shard posting list and
// returns the number newly covered — the shard's partial of the
// seed-commit update.
//
//subsim:hotpath
func (sh *covShard) cover(v int32) int64 {
	var d int64
	for _, id := range sh.posting(v) {
		if sh.covered[id] != sh.run {
			sh.covered[id] = sh.run
			d++
		}
	}
	return d
}

// postingMass returns the total posting-list length of v across shards:
// its degree, and the fan-out decision input for the per-round reduces.
func (x *Index) postingMass(v int32) int64 {
	var m int64
	for s := range x.shards {
		sh := &x.shards[s]
		m += sh.heads[v+1] - sh.heads[v]
	}
	return m
}

// Degree returns the number of indexed RR sets containing v, i.e. the
// marginal coverage of v with respect to the empty seed set.
func (x *Index) Degree(v int32) int {
	x.ensureIndexed()
	return int(x.postingMass(v))
}

// CoverageOf returns Λ(S): the number of indexed RR sets intersecting
// the seed set. Each shard counts the sets its segment contributes
// (under a fresh run), and the counts add up because the shards
// partition the collection.
func (x *Index) CoverageOf(seeds []int32) int64 {
	x.ensureIndexed()
	var cov int64
	for s := range x.shards {
		sh := &x.shards[s]
		sh.newRun()
		for _, v := range seeds {
			cov += sh.cover(v)
		}
	}
	return cov
}

// marginal returns the exact marginal coverage of v: per-shard partials
// tree-reduced in the fixed lane order. Heavy posting lists fan out
// across lanes (each lane owning whole shards, so covered-stamp reads
// never cross a lane boundary); light ones stay inline.
//
//subsim:parallel
func (x *Index) marginal(v int32) int64 {
	shards := len(x.shards)
	lanes := x.lanes()
	if lanes > 1 && x.postingMass(v) >= int64(parallelReduceMinPostings) {
		sec := x.secReduce.Enter()
		x.growPartial(lanes)
		x.runTimed(timeline.PhaseReduce, lanes, func(l int) {
			var g int64
			for s := l; s < shards; s += lanes {
				g += x.shards[s].marginal(v)
			}
			x.partial[l] = g
		})
		sec.Exit()
		return reducePartials(x.partial[:lanes])
	}
	var g int64
	for s := range x.shards {
		g += x.shards[s].marginal(v)
	}
	return g
}

// commitSeed stamps the sets of the freshly selected seed as covered in
// every shard and returns the total newly covered — the fan-out twin of
// marginal, with per-shard deltas tree-reduced the same way.
//
//subsim:parallel
func (x *Index) commitSeed(v int32) int64 {
	shards := len(x.shards)
	lanes := x.lanes()
	if lanes > 1 && x.postingMass(v) >= int64(parallelReduceMinPostings) {
		sec := x.secReduce.Enter()
		x.growPartial(lanes)
		x.runTimed(timeline.PhaseReduce, lanes, func(l int) {
			var d int64
			for s := l; s < shards; s += lanes {
				d += x.shards[s].cover(v)
			}
			x.partial[l] = d
		})
		sec.Exit()
		return reducePartials(x.partial[:lanes])
	}
	var d int64
	for s := range x.shards {
		d += x.shards[s].cover(v)
	}
	return d
}

// lanes returns the number of lanes a per-shard pass fans out over.
func (x *Index) lanes() int {
	if x.workers < len(x.shards) {
		return x.workers
	}
	return len(x.shards)
}

// GreedyOptions configures one seed-selection run.
type GreedyOptions struct {
	// K is the number of seeds to select (clamped to the node count).
	K int
	// Revised enables the Algorithm 6 tie-break: among nodes with the
	// same marginal coverage, prefer the larger out-degree. It requires
	// the index to have been built with out-degrees.
	Revised bool
	// Base is coverage already guaranteed outside this index — in HIST's
	// second phase, the number of RR sets that terminated on a sentinel.
	// It is added to the reported coverages and the upper bound.
	Base int64
	// TopL is the number of largest marginal coverages summed in the Λᵘ
	// prefix bound; it defaults to K. HIST's second phase selects k-b
	// seeds but bounds the size-k optimum, so it passes TopL = k.
	TopL int
	// Exclude marks nodes (indexed by id) that must not be selected —
	// HIST's second phase excludes the sentinel set, which would
	// otherwise be re-picked as zero-gain nodes via the out-degree
	// tie-break.
	Exclude []bool
}

// GreedyResult is the outcome of a selection run.
type GreedyResult struct {
	// Seeds are the selected nodes in pick order (length min(K, n)).
	Seeds []int32
	// Coverage[i] is Base + Λ(S*_{i+1}), the coverage of the first i+1
	// seeds.
	Coverage []int64
	// CoverageUpper is Λᵘ: an upper bound on Base + Λ(S) for any seed
	// set of size TopL, per the maxMC prefix construction.
	CoverageUpper int64
}

// TotalCoverage returns the coverage of the full selected set, or Base
// when no seed was selected.
func (g GreedyResult) TotalCoverage(base int64) int64 {
	if len(g.Coverage) == 0 {
		return base
	}
	return g.Coverage[len(g.Coverage)-1]
}

// celfEntry is one lazy-greedy heap element: the node and its most
// recently computed marginal coverage, which by submodularity upper
// bounds its current marginal.
type celfEntry struct {
	gain int64
	node int32
	iter int32 // selection round the gain was computed in
}

// celfHeap is a hand-rolled max-heap over celfEntry. container/heap
// boxes every pushed and popped element into an interface, which put
// tens of thousands of allocations on the selection path; the direct
// implementation keeps Push/Pop allocation-free. The comparison is a
// total order (node ids are unique), so the pop sequence — and with it
// every greedy pick — is identical to the container/heap version.
type celfHeap struct {
	entries  []celfEntry
	outDeg   []int32 // nil disables the out-degree tie-break
	frontier []int32 // topGainSum scratch: entry positions
}

func (h *celfHeap) Len() int { return len(h.entries) }

// less orders entries by gain, then the optional out-degree tie-break,
// then node id (a total order, so pops are deterministic).
//
//subsim:hotpath
func (h *celfHeap) less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if h.outDeg != nil && h.outDeg[a.node] != h.outDeg[b.node] {
		return h.outDeg[a.node] > h.outDeg[b.node]
	}
	return a.node < b.node
}

// swap exchanges two entries in place.
//
//subsim:hotpath
func (h *celfHeap) swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }

// init establishes the heap invariant over the current entries in O(n).
func (h *celfHeap) init() {
	n := len(h.entries)
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i, n)
	}
}

// siftDown restores the invariant below i over the first n entries.
//
//subsim:hotpath
func (h *celfHeap) siftDown(i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && h.less(r, l) {
			best = r
		}
		if !h.less(best, i) {
			return
		}
		h.swap(i, best)
		i = best
	}
}

// siftUp restores the invariant above i.
//
//subsim:hotpath
func (h *celfHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// push adds an entry, keeping the invariant.
//
//subsim:hotpath
func (h *celfHeap) push(e celfEntry) {
	h.entries = append(h.entries, e)
	h.siftUp(len(h.entries) - 1)
}

// pop removes and returns the maximum entry.
//
//subsim:hotpath
func (h *celfHeap) pop() celfEntry {
	n := len(h.entries) - 1
	h.swap(0, n)
	top := h.entries[n]
	h.entries = h.entries[:n]
	h.siftDown(0, n)
	return top
}

// topGainSum returns the sum of the topL largest gains in the heap
// without modifying it. less orders by gain first, so no entry's gain
// exceeds its parent's: a best-first walk from the root — a small
// max-heap of entry positions keyed by gain, popping the largest and
// pushing its two children — visits gains in non-increasing order. It
// stops after topL pops or at the first zero gain, so one call costs
// O(topL log topL) however many entries the heap holds. The result is
// an integer sum, so the order in which equal gains are visited cannot
// change it.
//
//subsim:hotpath
func (h *celfHeap) topGainSum(topL int) int64 {
	es := h.entries
	if topL <= 0 || len(es) == 0 {
		return 0
	}
	fr := append(h.frontier[:0], 0)
	var sum int64
	for taken := 0; taken < topL && len(fr) > 0; taken++ {
		top := int(fr[0])
		g := es[top].gain
		if g == 0 {
			break // every gain left in the frontier, and below it, is 0
		}
		sum += g
		// Replace the popped position by its left child (or, at a leaf,
		// by the frontier's last position), sift it down, then push the
		// right child.
		if c := 2*top + 1; c < len(es) {
			fr[0] = int32(c)
		} else {
			fr[0] = fr[len(fr)-1]
			fr = fr[:len(fr)-1]
		}
		for i := 0; ; {
			l := 2*i + 1
			if l >= len(fr) {
				break
			}
			best := l
			if r := l + 1; r < len(fr) && es[fr[r]].gain > es[fr[l]].gain {
				best = r
			}
			if es[fr[best]].gain <= es[fr[i]].gain {
				break
			}
			fr[i], fr[best] = fr[best], fr[i]
			i = best
		}
		if c := 2*top + 2; c < len(es) {
			fr = append(fr, int32(c))
			for i := len(fr) - 1; i > 0; {
				p := (i - 1) / 2
				if es[fr[p]].gain >= es[fr[i]].gain {
					break
				}
				fr[i], fr[p] = fr[p], fr[i]
				i = p
			}
		}
	}
	h.frontier = fr[:0]
	return sum
}

// SelectSeeds runs the (revised) greedy max-coverage algorithm with lazy
// marginal evaluation and computes the Λᵘ upper bound along the way.
//
// Lazy evaluation is exact: a popped entry whose gain is stale is
// recomputed and pushed back, so the node actually selected in each round
// has the true maximum marginal coverage (with the configured
// tie-break applied to recomputed values).
//
// The upper bound is evaluated at prefix 0, at every power-of-two prefix,
// and at the final prefix; the minimum is returned. Skipping intermediate
// prefixes can only loosen the bound, never invalidate it. At each of
// those O(log k) prefixes the heap holds exactly the unselected,
// non-excluded nodes, each keyed by its stored gain (an upper bound on
// its current marginal), so the top-L sum is a walk of the heap's top
// (topGainSum) in O(L log L), independent of n.
//
// With SetWorkers(w>1) the first CELF round (initial gains for all n
// nodes and the entry fill) is partitioned across node ranges, and every
// later round's heavy work (stale-top marginal recomputes and the
// covered-bit commit) fans out across shards; the heap itself stays
// serial. Per-run scratch (heap backing array, walk frontier, gain
// staging array) is reused across calls, so repeated selection rounds on
// a warm index do not allocate beyond the returned Seeds/Coverage
// slices.
//
//subsim:parallel
func (x *Index) SelectSeeds(opt GreedyOptions) GreedyResult {
	k := opt.K
	if k > x.n {
		k = x.n
	}
	if k < 0 {
		k = 0
	}
	topL := opt.TopL
	if topL <= 0 {
		topL = k
	}
	var tie []int32
	if opt.Revised {
		if x.outDeg == nil {
			panic("coverage: Revised greedy requires out-degrees")
		}
		tie = x.outDeg
	}

	x.ensureIndexed()
	for s := range x.shards {
		x.shards[s].newRun()
	}
	if cap(x.selEntries) < x.n {
		x.selEntries = make([]celfEntry, 0, x.n)
	}
	if f := min(topL, x.n) + 1; cap(x.selFrontier) < f {
		x.selFrontier = make([]int32, 0, f) // the walk never holds more
	}
	var h celfHeap
	h.outDeg = tie
	h.entries = x.selEntries[:0]
	h.frontier = x.selFrontier[:0]

	secG := x.secGains.Enter()
	if x.workers > 1 && x.n >= parallelGainsMinNodes {
		// Per-worker interval records come out of the runTimed wrapper
		// around each gains sub-pass (parallel.go).
		if len(x.selGains) < x.n {
			x.selGains = make([]int64, x.n)
		}
		h.entries = x.parallelInitialGains(h.entries, x.selGains[:x.n], opt.Exclude)
	} else {
		r := x.ring(0)
		t0 := r.Now()
		for v := 0; v < x.n; v++ {
			if opt.Exclude != nil && opt.Exclude[v] {
				continue
			}
			h.entries = append(h.entries, celfEntry{gain: x.postingMass(int32(v)), node: int32(v), iter: 0})
		}
		r.Record(timeline.PhaseGains, t0, r.Now())
	}
	h.init()
	secG.Exit()

	res := GreedyResult{
		Seeds:         make([]int32, 0, k),
		Coverage:      make([]int64, 0, k),
		CoverageUpper: int64(x.NumSets()) + opt.Base, // trivial bound; tightened below
	}

	// Upper bound at prefix 0: Base + sum of the topL largest initial
	// coverages.
	res.tightenUpper(opt.Base + h.topGainSum(topL))

	secS := x.secSelect.Enter()
	rSel := x.ring(0)
	tSel := rSel.Now()
	var cum int64
	nextBoundAt := 1
	for round := int32(1); int(round) <= k && h.Len() > 0; round++ {
		var pick celfEntry
		for {
			pick = h.pop()
			if pick.iter == round-1 || pick.gain == 0 {
				// Fresh (computed against the current covered state), or
				// zero — no stale entry can beat zero since gains are
				// non-negative.
				break
			}
			// Stale: recompute the exact marginal and reinsert.
			pick.gain = x.marginal(pick.node)
			pick.iter = round - 1
			h.push(pick)
		}
		v := pick.node
		cum += x.commitSeed(v)
		res.Seeds = append(res.Seeds, v)
		res.Coverage = append(res.Coverage, opt.Base+cum)

		if int(round) == nextBoundAt || int(round) == k {
			// Stored gains upper-bound each node's current marginal
			// (submodularity), so their topL sum dominates the true
			// maxMC sum at this prefix.
			res.tightenUpper(opt.Base + cum + h.topGainSum(topL))
			nextBoundAt *= 2
		}
	}
	rSel.Record(timeline.PhaseSelect, tSel, rSel.Now())
	secS.Exit()
	// Keep the heap's backing array, which push may have regrown.
	x.selEntries = h.entries[:0]
	return res
}

func (r *GreedyResult) tightenUpper(bound int64) {
	if bound < r.CoverageUpper {
		r.CoverageUpper = bound
	}
}
