// Package im implements the sampling-based influence-maximization
// baselines the paper compares against — IMM (Tang et al. 2015), OPIM-C
// (Tang et al. 2018) and SSA (Nguyen et al. 2016, with the corrected
// verification of Huang et al. 2017) — plus a forward-Monte-Carlo CELF
// greedy used to ground-truth tiny graphs in the tests.
//
// Every algorithm is parameterised by an rrset.Generator, so each
// baseline runs with either the vanilla generator (as in the original
// systems) or with SUBSIM (the paper's "SUBSIM" configuration is OPIM-C
// over the SUBSIM generator, see internal/core).
package im

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"subsim/internal/coverage"
	"subsim/internal/obs"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// Options configures one influence-maximization run.
type Options struct {
	// K is the seed-set size (1 <= K <= n).
	K int
	// Eps is the approximation slack ε of the (1-1/e-ε) guarantee.
	Eps float64
	// Delta is the failure probability; 0 defaults to 1/n.
	Delta float64
	// Seed seeds all randomness; a fixed Seed reproduces a run exactly,
	// independent of Workers (every RR set draws from an RNG stream
	// derived from its global index, see Batcher).
	Seed uint64
	// Workers bounds the RR-generation parallelism; 0 defaults to
	// GOMAXPROCS.
	Workers int
	// Revised enables the Algorithm 6 out-degree tie-break in greedy
	// selection. The baselines default to the classic greedy; HIST
	// always enables it.
	Revised bool
	// Bound selects the sample-complexity analysis that caps θ:
	// BoundIMM (the zero value) keeps the worst-case IMM/OPIM-C
	// constants and historic behavior; BoundTight lets algorithms stop
	// at the smaller of the worst-case and the Sadeh–Cohen–Kaplan-style
	// tightened budgets. Both budgets are reported either way.
	Bound BoundKind
	// Tracer receives phase spans (per doubling round: sampling,
	// selection, bound-check) and low-overhead RR metrics, and produces
	// Result.Report. Nil disables all instrumentation at zero cost —
	// see the obs package's nil-tracer contract.
	Tracer *obs.Tracer
	// Logger receives structured run events (run.start, round.done,
	// bound.crossed, run.done — see obs.Logger's event schema) through
	// log/slog. Nil — the default — is silent and allocation-free on
	// every emit site, mirroring the nil-tracer contract.
	Logger *obs.Logger
}

// BoundKind selects the sample-complexity analysis used to cap θ.
type BoundKind int

const (
	// BoundIMM is the baseline worst-case budget (the IMM/OPIM-C
	// constants already in internal/bounds).
	BoundIMM BoundKind = iota
	// BoundTight engages the tightened two-sided budget
	// (bounds.ThetaMaxTight / bounds.ThetaTightOPT): algorithms stop at
	// the smaller certified θ.
	BoundTight
)

// String returns the flag-level name of the bound.
func (b BoundKind) String() string {
	switch b {
	case BoundTight:
		return "tight"
	default:
		return "imm"
	}
}

// ParseBound maps a flag value ("imm" | "tight") to its kind.
func ParseBound(s string) (BoundKind, error) {
	switch s {
	case "imm", "":
		return BoundIMM, nil
	case "tight":
		return BoundTight, nil
	default:
		return BoundIMM, fmt.Errorf("im: unknown bound %q (want imm or tight)", s)
	}
}

func (o *Options) Normalize(n int) error {
	if o.K < 1 || o.K > n {
		return fmt.Errorf("im: k=%d outside [1,%d]", o.K, n)
	}
	if o.Eps <= 0 || o.Eps >= 1 {
		return fmt.Errorf("im: eps=%v outside (0,1)", o.Eps)
	}
	if o.Delta == 0 {
		o.Delta = 1 / float64(n)
	}
	if o.Delta <= 0 || o.Delta >= 1 {
		return fmt.Errorf("im: delta=%v outside (0,1)", o.Delta)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// Result reports the outcome and cost accounting of a run.
type Result struct {
	// Seeds is the selected seed set, in selection order. For HIST the
	// sentinel nodes come first.
	Seeds []int32
	// Influence is the algorithm's unbiased coverage-based estimate
	// n·Λ(S)/θ of the expected influence of Seeds.
	Influence float64
	// LowerBound is the certified (1-δ)-confidence lower bound on the
	// influence of Seeds (Equation 1); 0 when the algorithm does not
	// certify one.
	LowerBound float64
	// UpperBound is the certified upper bound on the optimum
	// (Equation 2); 0 when not certified.
	UpperBound float64
	// Approx is LowerBound/UpperBound, the certified approximation
	// ratio at termination.
	Approx float64
	// RRStats aggregates generation cost across all RR collections.
	RRStats rrset.Stats
	// Rounds is the number of doubling iterations executed.
	Rounds int
	// SentinelRR counts the RR sets generated during HIST's sentinel
	// phase (Figure 3a); 0 for other algorithms.
	SentinelRR int64
	// SentinelSize is HIST's |S_b|; 0 for other algorithms.
	SentinelSize int
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// ThetaWorstCase is the worst-case RR sample budget θ_max of the
	// baseline IMM/OPIM-C analysis for this run's (n, k, ε, δ); 0 when
	// the algorithm does not compute one.
	ThetaWorstCase int64 `json:",omitempty"`
	// ThetaTight is the tightened sample budget (Sadeh–Cohen–Kaplan
	// style, see bounds.ThetaMaxTight) for the same parameters. It is
	// reported whether or not Options.Bound engaged it, so runs always
	// show how much the tightened analysis certifies; ≤ ThetaWorstCase.
	ThetaTight int64 `json:",omitempty"`
	// Report is the machine-readable observability report (span tree,
	// histograms, counters) when Options.Tracer was set; nil otherwise.
	Report *obs.Report `json:",omitempty"`
}

// Batcher generates RR sets in parallel with deterministic output for a
// fixed seed *independent of the worker count*: the i-th set ever drawn
// through the batcher comes from an RNG stream derived from (seed, i),
// so workers=1 and workers=8 produce identical sets, identical merged
// generator stats, and therefore identical algorithm results. Workers
// only decide how the per-index streams are partitioned.
//
// Fill generates straight into a coverage.Index's shard arenas, so a set
// is written once, where the index reads it. Visit generates into
// per-worker scratch arenas that own contiguous global-index ranges in
// ascending worker order, so visiting them worker by worker replays the
// sets in global-index order. Either way the steady-state cost of a set
// is the traversal itself — no per-set heap allocation.
type Batcher struct {
	workers []batchWorker
	seed    uint64
	next    int64 // global index of the next set to generate

	// coldNodes estimates nodes per RR set before any set has been
	// generated (the cold-start reserve); seeded from the graph's average
	// in-degree, since an RR set's expected size tracks how many in-edges
	// a BFS layer fans out over.
	coldNodes int

	// secGenerate tags generation with pprof labels and a runtime/trace
	// region; nil (the disabled instrument) on an uninstrumented batcher.
	secGenerate *obs.PhaseSection
}

// cacheLine is the coherence granule the per-worker state is padded to.
const cacheLine = 64

// workerState is one generation worker's mutable state: its generator
// clone, the RNG stream it reseeds per set, the scratch arena Visit
// generates into, the generator counters at construction (Stats reports
// deltas), the sets and nodes it generated without (sized[0]) and with
// (sized[1]) a sentinel, and its sentinel-hit count of the current
// fill.
type workerState struct {
	gen   rrset.Generator
	src   rng.Source
	arena rrset.Arena
	base  rrset.Stats
	sized [2]rrset.Stats
	hits  int64
}

// batchWorker pads workerState so that in a []batchWorker the mutable
// fields of two workers are at least one cache line apart, whatever the
// alignment of the slice: each worker writes its RNG state on every draw
// and its arena header on every set, and two workers sharing a line
// would invalidate each other's caches on every set.
type batchWorker struct {
	workerState
	_ [cacheLine + (cacheLine-unsafe.Sizeof(workerState{})%cacheLine)%cacheLine]byte
}

// NewBatcher builds a parallel generation front-end over gen. The
// generator is cloned per worker; clones share any immutable
// preprocessing (sorted in-edges, bucket samplers).
func NewBatcher(gen rrset.Generator, seed uint64, workers int) *Batcher {
	if workers < 1 {
		workers = 1
	}
	b := &Batcher{
		workers: make([]batchWorker, workers),
		seed:    seed,
	}
	if g := gen.Graph(); g != nil {
		cold := int(g.AvgDegree()) + 1
		if cold < 2 {
			cold = 2
		}
		if cold > 64 {
			cold = 64
		}
		b.coldNodes = cold
	} else {
		b.coldNodes = 2
	}
	for w := range b.workers {
		bw := &b.workers[w]
		if w == 0 {
			bw.gen = gen
		} else {
			bw.gen = gen.Clone()
		}
		bw.base = bw.gen.Stats()
		bw.src.Seed(seed)
	}
	return b
}

// NewInstrumentedBatcher is NewBatcher with every worker generator
// wrapped by rrset.Instrument against m, including a per-worker
// sets-generated counter. A nil m yields a plain, unwrapped batcher —
// the zero-overhead disabled path.
func NewInstrumentedBatcher(gen rrset.Generator, seed uint64, workers int, m *obs.MetricSet) *Batcher {
	b := NewBatcher(gen, seed, workers)
	if m == nil {
		return b
	}
	b.secGenerate = obs.Section("generate", len(b.workers))
	for w := range b.workers {
		bw := &b.workers[w]
		bw.gen = rrset.InstrumentWorker(bw.gen, m, w)
	}
	return b
}

// setSeed derives the RNG seed of the set with global index idx from the
// batcher seed, splitmix-style, so per-index streams are decorrelated
// and two batchers with nearby seeds (HIST uses seed and seed+1) do not
// collide.
func setSeed(base uint64, idx int64) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fillArenas generates count sets into the per-worker scratch arenas,
// worker w holding the w-th contiguous block of global indices, and
// returns the number of arenas used (a prefix of the workers). Arenas
// are reused across calls: steady-state generation performs zero
// per-set allocations.
//
//subsim:parallel
func (b *Batcher) fillArenas(count int, sentinel []bool) (used int) {
	first := b.next
	b.next += int64(count)
	workers := len(b.workers)
	if count < 4*workers || workers == 1 {
		bw := &b.workers[0]
		bw.arena.Reset()
		b.reserve(&bw.arena, 0, count, sentinel)
		before := bw.gen.Stats()
		for i := 0; i < count; i++ {
			bw.src.Seed(setSeed(b.seed, first+int64(i)))
			rrset.GenerateRandomInto(bw.gen, &bw.arena, &bw.src, sentinel)
		}
		bw.generated(sentinel, before)
		return 1
	}
	per := count / workers
	extra := count % workers
	var wg sync.WaitGroup
	offset := int64(0)
	for w := 0; w < workers; w++ {
		cnt := per
		if w < extra {
			cnt++
		}
		wg.Add(1)
		go func(w, cnt int, start int64) {
			defer wg.Done()
			bw := &b.workers[w]
			bw.arena.Reset()
			b.reserve(&bw.arena, w, cnt, sentinel)
			before := bw.gen.Stats()
			for i := 0; i < cnt; i++ {
				bw.src.Seed(setSeed(b.seed, start+int64(i)))
				rrset.GenerateRandomInto(bw.gen, &bw.arena, &bw.src, sentinel)
			}
			bw.generated(sentinel, before)
		}(w, cnt, first+offset)
		offset += int64(cnt)
	}
	wg.Wait()
	return workers
}

// reserve pre-grows an arena that worker w is about to generate cnt
// sets into, from the data: the running average RR-set size of the
// worker's sets of the same kind (with headroom) tells the arena how
// many node ids the sets will need, replacing amortised doubling with a
// single up-front growth in the common case. The two kinds, sets
// generated with and without a sentinel, are averaged apart because
// they differ by orders of magnitude in HIST's sentinel phase, which
// draws both through one batcher: a mixed average would over-reserve
// the sentinel visits and under-reserve the full fills. Without a
// history of its own kind, a sentinel-free pass falls back to the
// generator's lifetime average and a sentinel pass to the cold start:
// the graph's average in-degree (coldNodes), instead of reserving zero
// nodes and eating log2(batch) reallocations.
func (b *Batcher) reserve(a *rrset.Arena, w, cnt int, sentinel []bool) {
	bw := &b.workers[w]
	s := bw.sized[sizeKind(sentinel)]
	if s.Sets == 0 && sentinel == nil {
		s = bw.gen.Stats()
	}
	if s.Sets == 0 {
		a.Reserve(cnt, cnt*b.coldNodes)
		return
	}
	a.Reserve(cnt, int(s.AvgSize()*float64(cnt)*1.25)+cnt)
}

// sizeKind indexes workerState.sized: 0 for sets generated without a
// sentinel, 1 for sentinel-terminated traversals.
func sizeKind(sentinel []bool) int {
	if sentinel == nil {
		return 0
	}
	return 1
}

// generated adds the sets and nodes of a generation pass that started
// with the generator counters at before to the pass's kind.
func (bw *workerState) generated(sentinel []bool, before rrset.Stats) {
	s := bw.gen.Stats()
	s.Sub(before)
	bw.sized[sizeKind(sentinel)].Add(s)
}

// Visit generates count random RR sets (uniform roots), stopping each
// traversal at sentinel nodes when sentinel is non-nil, and calls visit
// on each set in deterministic global-index order regardless of the
// worker count. The slices passed to visit are views into reusable
// worker arenas: valid only during the call, copy to retain. A false
// return stops the visiting loop early (all count sets have already
// been generated, so batcher state and stats are unaffected).
func (b *Batcher) Visit(count int, sentinel []bool, visit func(set []int32) bool) {
	if count <= 0 {
		return
	}
	used := b.fillArenas(count, sentinel)
	for w := 0; w < used; w++ {
		a := &b.workers[w].arena
		for i, n := 0, a.Len(); i < n; i++ {
			if !visit(a.Set(i)) {
				return
			}
		}
	}
}

// Generate produces count random RR sets in deterministic global-index
// order, each freshly allocated and owned by the caller. It is the
// compatibility wrapper over Visit; hot paths (Fill, Visit) avoid the
// per-set copies entirely.
func (b *Batcher) Generate(count int, sentinel []bool) []rrset.RRSet {
	if count <= 0 {
		return nil
	}
	out := make([]rrset.RRSet, 0, count)
	b.Visit(count, sentinel, func(set []int32) bool {
		cp := make(rrset.RRSet, len(set))
		copy(cp, set)
		out = append(out, cp)
		return true
	})
	return out
}

// Stats sums the generation counters across all workers, relative to
// the counters each generator carried when the batcher was built. The
// baseline matters when two batchers share a generator instance — HIST's
// two phases both build a batcher over the caller's generator, and the
// delta semantics keep each phase's accounting disjoint instead of
// double-counting worker 0.
func (b *Batcher) Stats() rrset.Stats {
	var s rrset.Stats
	for w := range b.workers {
		bw := &b.workers[w]
		s.Add(bw.gen.Stats())
		s.Sub(bw.base)
	}
	return s
}

// ResetStats zeroes the counters on all workers and the baseline.
func (b *Batcher) ResetStats() {
	for w := range b.workers {
		bw := &b.workers[w]
		bw.gen.ResetStats()
		bw.base = rrset.Stats{}
	}
}

// Fill generates count RR sets into idx. When sentinel is non-nil, sets
// that terminated on a sentinel (i.e. contain one) are NOT absorbed;
// instead the number of such hits is returned, matching Algorithm 8
// line 5 where covered-by-S_b sets are excluded from greedy.
//
// The set with global index i is generated straight into shard
// coverage.ShardOf(i, shards), lane l of min(workers, shards) lanes
// generating every shard s ≡ l (mod lanes) with worker l's generator
// and RNG stream, and a sentinel-terminated set is truncated in place
// (Arena.DropLast). Placement is a pure function of (index, shard
// count) and never depends on scheduling, so the index holds the same
// sets regardless of the worker count.
//
//subsim:parallel
func (b *Batcher) Fill(idx *coverage.Index, count int, sentinel []bool) (hits int64) {
	if count <= 0 {
		return 0
	}
	hGen := b.secGenerate.Enter()
	idx.BeginFill()
	first := b.next
	b.next += int64(count)
	shards := idx.NumShards()
	lanes := len(b.workers)
	if lanes > shards {
		lanes = shards
	}
	if count < 4*shards || lanes == 1 {
		// Small batch: worker 0's generator serves every shard in turn;
		// set content depends only on (seed, index), so the lane choice
		// is invisible.
		hits = b.fillLane(idx, 0, 1, first, count, sentinel)
		hGen.Exit()
		return hits
	}
	var wg sync.WaitGroup
	wg.Add(lanes - 1)
	for l := 1; l < lanes; l++ {
		go func(l int) {
			defer wg.Done()
			b.workers[l].hits = b.fillLane(idx, l, lanes, first, count, sentinel)
		}(l)
	}
	b.workers[0].hits = b.fillLane(idx, 0, lanes, first, count, sentinel)
	wg.Wait()
	for l := 0; l < lanes; l++ {
		hits += b.workers[l].hits
	}
	hGen.Exit()
	return hits
}

// fillLane generates, through worker l's generator and RNG stream, the
// sets of every shard s ≡ l (mod lanes) among the global indices
// [first, first+count), and returns the sentinel hits it dropped.
func (b *Batcher) fillLane(idx *coverage.Index, l, lanes int, first int64, count int, sentinel []bool) (hits int64) {
	shards := idx.NumShards()
	for s := l; s < shards; s += lanes {
		hits += b.fillShard(idx.ShardArena(s), l, s, shards, first, count, sentinel)
	}
	return hits
}

// fillShard generates every global index idx in [first, first+count)
// with ShardOf(idx, shards) == shard into a, through worker w's
// generator and RNG stream, appending onto whatever the arena already
// holds (it is a persistent store segment, never Reset). Sets that
// terminated on a sentinel are dropped in place and counted.
func (b *Batcher) fillShard(a *rrset.Arena, w, shard, shards int, first int64, count int, sentinel []bool) (hits int64) {
	r := (int64(shard) - first%int64(shards) + int64(shards)) % int64(shards)
	if r >= int64(count) {
		return 0
	}
	cnt := (int64(count) - r + int64(shards) - 1) / int64(shards)
	b.reserve(a, w, int(cnt), sentinel)
	bw := &b.workers[w]
	before := bw.gen.Stats()
	last := first + int64(count)
	for idx := first + r; idx < last; idx += int64(shards) {
		bw.src.Seed(setSeed(b.seed, idx))
		rrset.GenerateRandomInto(bw.gen, a, &bw.src, sentinel)
		if sentinel != nil && arenaLastHit(a, sentinel) {
			a.DropLast()
			hits++
		}
	}
	bw.generated(sentinel, before)
	return hits
}

// arenaLastHit reports whether the arena's most recently committed set
// terminated on a sentinel; the traversal always leaves the sentinel as
// the set's last element.
func arenaLastHit(a *rrset.Arena, sentinel []bool) bool {
	set := a.Set(a.Len() - 1)
	return len(set) > 0 && sentinel[set[len(set)-1]]
}

// NewIndex constructs the exact coverage index for a run, wired to the
// metric set (which may be nil), with one shard per worker so
// Batcher.Fill generates every shard on its own lane. Worker bounds are
// inherited from opt.Workers. The shard count never changes a result:
// every query is a sum over shards.
func NewIndex(n int, outDeg []int32, opt Options, m *obs.MetricSet) *coverage.Index {
	idx := coverage.NewIndexObs(n, outDeg, opt.Workers, m)
	idx.SetWorkers(opt.Workers)
	return idx
}

// NewEstimator is NewIndex behind the coverage.Estimator interface, for
// callers that hold the index by its query surface; the perfbench
// replay recovers the *coverage.Index from it.
func NewEstimator(n int, outDeg []int32, opt Options, m *obs.MetricSet) coverage.Estimator {
	return NewIndex(n, outDeg, opt, m)
}

// outDegrees extracts the out-degree array used by the Revised-Greedy
// tie-break.
func outDegrees(gen rrset.Generator) []int32 {
	g := gen.Graph()
	deg := make([]int32, g.N())
	for v := range deg {
		deg[v] = int32(g.OutDegree(int32(v)))
	}
	return deg
}

// doublingRounds returns ceil(log2(max/initial)), the iteration budget of
// the doubling schemes.
func doublingRounds(initial, max int64) int {
	if max <= initial {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(max) / float64(initial))))
}
