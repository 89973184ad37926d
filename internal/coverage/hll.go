// Register-array HyperLogLog coverage backend.
//
// Each node owns a flat block of m = 2^precision one-byte registers
// inside one contiguous register file ([n·m]uint8), and every absorbed
// RR set is treated as one distinct element: its global set id is
// hashed once (splitmix64), split into a register slot (top p bits)
// and a rank (position of the first 1 in the remaining bits), and
// max-folded into the block of every node the set contains. Coverage
// queries — Degree, CoverageOf, CELF marginal gains — become harmonic-
// mean estimates over register blocks and their pointwise-max unions
// instead of posting-list walks, within the backend's certified
// relative standard error of ~1.04/sqrt(m).
//
// Because max is commutative and associative, the register file is a
// pure function of the absorbed (set id, membership) pairs: worker
// count, arena partitioning, and merge order cannot change a single
// byte, which preserves the repo's worker-independence invariant.
package coverage

import (
	"fmt"
	"math"
	"math/bits"

	"subsim/internal/obs"
	"subsim/internal/rrset"
)

const (
	// HLLDefaultPrecision is the register-index width p used when the
	// caller passes 0: m = 256 registers (256 B) per node, relative
	// standard error ~6.5%.
	HLLDefaultPrecision = 8
	// HLLMinPrecision and HLLMaxPrecision bound the accepted p. Below 4
	// the bias correction breaks down; above 16 the per-node block (64 KiB)
	// defeats the point of sketching.
	HLLMinPrecision = 4
	HLLMaxPrecision = 16
)

// pow2neg[r] = 2^-r for every possible register byte. The table spans
// the full byte range — not just the ranks a 64-bit hash can produce —
// so estimates over corrupted register files (fuzzing, bad input)
// degrade gracefully instead of indexing out of range.
var pow2neg = func() [256]float64 {
	var t [256]float64
	for i := range t {
		t[i] = math.Pow(2, -float64(i))
	}
	return t
}()

// hllAlpha is the standard bias-correction constant α_m.
func hllAlpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	return 0.7213 / (1 + 1.079/float64(m))
}

// hllMix is the splitmix64 finalizer — the same hash family the RR
// batcher uses to derive per-set RNG streams, applied here to the
// global set id so sketch contents are a pure function of set ids.
func hllMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hllSlot splits a hash into its register index (top p bits) and rank
// (position of the first 1 bit in the remainder, 1-based). The OR'd
// sentinel bit caps the rank at 64-p+1 when the remainder is all zeros.
//
//subsim:hotpath
func hllSlot(x uint64, p uint32) (j int, rank uint8) {
	j = int(x >> (64 - p))
	rank = uint8(bits.LeadingZeros64(x<<p|1<<(p-1))) + 1
	return j, rank
}

// hllRawSum accumulates the harmonic denominator and zero-register
// count of one register block.
//
//subsim:hotpath
func hllRawSum(regs []uint8) (sum float64, zeros int) {
	for _, r := range regs {
		sum += pow2neg[r]
		if r == 0 {
			zeros++
		}
	}
	return sum, zeros
}

// hllUnionSum is hllRawSum over the pointwise max of two equal-length
// register blocks, without materializing the union.
//
//subsim:hotpath
func hllUnionSum(a, b []uint8) (sum float64, zeros int) {
	for i, r := range a {
		if s := b[i]; s > r {
			r = s
		}
		sum += pow2neg[r]
		if r == 0 {
			zeros++
		}
	}
	return sum, zeros
}

// hllEstimate turns a harmonic sum into the bias-corrected cardinality
// estimate, with the linear-counting correction in the small range. No
// large-range correction is needed: ranks come from a 64-bit hash.
func hllEstimate(sum float64, zeros, m int) float64 {
	if sum <= 0 {
		return 0
	}
	e := hllAlpha(m) * float64(m) * float64(m) / sum
	if zeros > 0 && e <= 2.5*float64(m) {
		e = float64(m) * math.Log(float64(m)/float64(zeros))
	}
	return e
}

// MergeRegisters folds src into dst by pointwise max — the HLL union.
// Register files of different lengths mean different precisions; the
// merge rejects the pair by returning false and leaving dst untouched.
//
//subsim:hotpath
func MergeRegisters(dst, src []uint8) bool {
	if len(dst) != len(src) {
		return false
	}
	for i, s := range src {
		if s > dst[i] {
			dst[i] = s
		}
	}
	return true
}

// EstimateUnion returns the estimated distinct-element count of the
// union of two register files, or -1 when their lengths (precisions)
// differ or are empty — mismatched registers cannot be compared.
//
//subsim:hotpath
func EstimateUnion(a, b []uint8) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return -1
	}
	sum, zeros := hllUnionSum(a, b)
	return hllEstimate(sum, zeros, len(a))
}

// EstimateRegisters returns the cardinality estimate of one register
// file, or -1 when it is empty.
func EstimateRegisters(regs []uint8) float64 {
	if len(regs) == 0 {
		return -1
	}
	sum, zeros := hllRawSum(regs)
	return hllEstimate(sum, zeros, len(regs))
}

// hllSpan is one kept set's slice of an arena buffer plus its
// precomputed register slot, so parallel workers never rehash.
type hllSpan struct {
	start, end int64
	j          int32
	rank       uint8
}

// parallelAbsorbMinSets is the kept-set count below which AbsorbArena
// stays serial. A var so tests can force the parallel path on small
// inputs.
var parallelAbsorbMinSets = 1 << 10

// HLL is the sketch coverage estimator: one HyperLogLog register block
// per node over the stream of absorbed RR-set ids. It implements
// Estimator with memory fixed at n·2^p bytes regardless of θ and does
// not retain the sets themselves. Like *Index it is append-only and not
// safe for concurrent mutation; a nil *HLL is an empty, inert
// estimator and every exported method tolerates it.
type HLL struct {
	n       int
	outDeg  []int32
	p       uint32
	m       int
	relErr  float64
	regs    []uint8 // n·m flat register file, node-major
	numSets int
	workers int

	memGauge *obs.IntGauge

	// Reused scratch: the selected-union sketch, CELF heap backing,
	// gain vector, selected marks, topSum buffer, and absorb spans.
	cov         []uint8
	selEntries  []hllEntry
	selGains    []float64
	selSelected []bool
	topScratch  []float64
	spanScratch []hllSpan
}

// NewHLL builds a sketch estimator over n nodes with 2^precision
// registers per node (precision 0 selects HLLDefaultPrecision). outDeg
// enables the revised-greedy tie-break and may be nil.
func NewHLL(n int, outDeg []int32, precision int) *HLL {
	if outDeg != nil && len(outDeg) != n {
		panic("coverage: outDeg length does not match node count")
	}
	p := precision
	if p == 0 {
		p = HLLDefaultPrecision
	}
	if p < HLLMinPrecision || p > HLLMaxPrecision {
		panic(fmt.Sprintf("coverage: HLL precision %d outside [%d, %d]", p, HLLMinPrecision, HLLMaxPrecision))
	}
	m := 1 << p
	return &HLL{
		n:       n,
		outDeg:  outDeg,
		p:       uint32(p),
		m:       m,
		relErr:  1.04 / math.Sqrt(float64(m)),
		regs:    make([]uint8, n*m),
		workers: 1,
		cov:     make([]uint8, m),
	}
}

// NewHLLObs is NewHLL wired to a metric set: the register-file resident
// size is published on the SketchBytes gauge at construction (it is
// fixed for the estimator's lifetime).
func NewHLLObs(n int, outDeg []int32, precision int, ms *obs.MetricSet) *HLL {
	h := NewHLL(n, outDeg, precision)
	if ms != nil {
		h.memGauge = &ms.SketchBytes
		h.memGauge.Set(h.MemoryBytes())
	}
	return h
}

// N returns the node count the estimator is defined over.
func (h *HLL) N() int {
	if h == nil {
		return 0
	}
	return h.n
}

// NumSets returns the number of RR sets absorbed so far.
func (h *HLL) NumSets() int {
	if h == nil {
		return 0
	}
	return h.numSets
}

// Precision returns the register-index width p.
func (h *HLL) Precision() int {
	if h == nil {
		return 0
	}
	return int(h.p)
}

// SetWorkers bounds the parallelism of absorb and initial-gain passes
// (clamped to >= 1). It never changes any estimate.
func (h *HLL) SetWorkers(w int) {
	if h == nil {
		return
	}
	if w < 1 {
		w = 1
	}
	h.workers = w
}

// Workers returns the configured parallelism bound.
func (h *HLL) Workers() int {
	if h == nil {
		return 1
	}
	return h.workers
}

// Kind identifies the sketch backend.
func (h *HLL) Kind() EstimatorKind { return EstimatorHLL }

// RelError is the certified relative standard error of the backend's
// coverage estimates: 1.04/sqrt(2^precision).
func (h *HLL) RelError() float64 {
	if h == nil {
		return 0
	}
	return h.relErr
}

// MemoryBytes reports the resident footprint of the coverage state:
// the register file plus the union scratch block. RR sets themselves
// are not retained — unlike the exact index, the footprint does not
// grow with θ.
func (h *HLL) MemoryBytes() int64 {
	if h == nil {
		return 0
	}
	return int64(cap(h.regs)) + int64(cap(h.cov))
}

// block returns node v's register block.
func (h *HLL) block(v int32) []uint8 {
	base := int(v) << h.p
	return h.regs[base : base+h.m]
}

// clampCount rounds an estimate to a coverage count in [0, NumSets].
func (h *HLL) clampCount(est float64) int64 {
	c := int64(est + 0.5)
	if c < 0 {
		c = 0
	}
	if c > int64(h.numSets) {
		c = int64(h.numSets)
	}
	return c
}

// Add absorbs one RR set: hash the next global set id once, then
// max-fold the (slot, rank) pair into every member node's block.
//
//subsim:hotpath
func (h *HLL) Add(set rrset.RRSet) {
	if h == nil {
		return
	}
	j, r := hllSlot(hllMix(uint64(h.numSets)), h.p)
	h.numSets++
	for _, v := range set {
		slot := int(v)<<h.p + j
		if r > h.regs[slot] {
			h.regs[slot] = r
		}
	}
}

// AbsorbArena absorbs a flat arena buffer, skipping sentinel-terminated
// sets, and returns the number skipped. Kept sets take consecutive
// global ids in buffer order, so the register file — and every estimate
// derived from it — is identical to absorbing the sets one Add at a
// time, for any worker count.
//
//subsim:parallel
func (h *HLL) AbsorbArena(data []int32, ends []int64, sentinel []bool) int64 {
	if h == nil || len(ends) == 0 {
		return 0
	}
	spans := h.spanScratch[:0]
	var hits int64
	start := int64(0)
	for _, end := range ends {
		if sentinel != nil && end > start && sentinel[data[end-1]] {
			hits++
			start = end
			continue
		}
		j, r := hllSlot(hllMix(uint64(h.numSets)), h.p)
		h.numSets++
		spans = append(spans, hllSpan{start: start, end: end, j: int32(j), rank: r})
		start = end
	}
	h.spanScratch = spans[:0]
	if h.workers > 1 && len(spans) >= parallelAbsorbMinSets {
		h.absorbParallel(data, spans)
		return hits
	}
	for _, s := range spans {
		h.absorbSpan(data, s)
	}
	return hits
}

// absorbSpan max-folds one kept set's precomputed slot into the blocks
// of its member nodes.
//
//subsim:hotpath
func (h *HLL) absorbSpan(data []int32, s hllSpan) {
	j := int(s.j)
	for _, v := range data[s.start:s.end] {
		slot := int(v)<<h.p + j
		if s.rank > h.regs[slot] {
			h.regs[slot] = s.rank
		}
	}
}

// absorbParallel partitions register ownership by node range: every
// worker scans all spans but only writes registers of nodes in its
// range. Writes are disjoint and max-folds commute, so the register
// file is byte-identical for any worker count.
//
//subsim:parallel
func (h *HLL) absorbParallel(data []int32, spans []hllSpan) {
	workers := h.workers
	runParallel(workers, func(w int) {
		lo := int32(h.n * w / workers)
		hi := int32(h.n * (w + 1) / workers)
		for _, s := range spans {
			j := int(s.j)
			rank := s.rank
			for _, v := range data[s.start:s.end] {
				if v < lo || v >= hi {
					continue
				}
				slot := int(v)<<h.p + j
				if rank > h.regs[slot] {
					h.regs[slot] = rank
				}
			}
		}
	})
}

// Degree estimates the number of absorbed RR sets containing v.
func (h *HLL) Degree(v int32) int {
	if h == nil {
		return 0
	}
	sum, zeros := hllRawSum(h.block(v))
	return int(h.clampCount(hllEstimate(sum, zeros, h.m)))
}

// CoverageOf estimates Λ(S) by merging the seed blocks into the union
// scratch sketch and estimating its cardinality.
func (h *HLL) CoverageOf(seeds []int32) int64 {
	if h == nil {
		return 0
	}
	for i := range h.cov {
		h.cov[i] = 0
	}
	for _, v := range seeds {
		MergeRegisters(h.cov, h.block(v))
	}
	sum, zeros := hllRawSum(h.cov)
	return h.clampCount(hllEstimate(sum, zeros, h.m))
}

// hllEntry is one lazy-greedy heap element over estimated gains.
type hllEntry struct {
	gain float64
	node int32
	iter int32 // selection round the gain was computed in
}

// hllHeap mirrors celfHeap for float-valued gains. The comparison is a
// total order (node ids are unique) and never tests floats for
// equality, so pops are deterministic.
type hllHeap struct {
	entries []hllEntry
	outDeg  []int32 // nil disables the out-degree tie-break
}

func (h *hllHeap) Len() int { return len(h.entries) }

// less orders entries by gain, then the optional out-degree tie-break,
// then node id.
//
//subsim:hotpath
func (h *hllHeap) less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if a.gain > b.gain {
		return true
	}
	if a.gain < b.gain {
		return false
	}
	if h.outDeg != nil && h.outDeg[a.node] != h.outDeg[b.node] {
		return h.outDeg[a.node] > h.outDeg[b.node]
	}
	return a.node < b.node
}

// swap exchanges two entries in place.
//
//subsim:hotpath
func (h *hllHeap) swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }

// init establishes the heap invariant in O(n).
func (h *hllHeap) init() {
	n := len(h.entries)
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i, n)
	}
}

// siftDown restores the invariant below i over the first n entries.
//
//subsim:hotpath
func (h *hllHeap) siftDown(i, n int) {
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
func (h *hllHeap) siftUp(i int) {
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
func (h *hllHeap) push(e hllEntry) {
	h.entries = append(h.entries, e)
	h.siftUp(len(h.entries) - 1)
}

// pop removes and returns the maximum entry.
//
//subsim:hotpath
func (h *hllHeap) pop() hllEntry {
	n := len(h.entries) - 1
	h.swap(0, n)
	top := h.entries[n]
	h.entries = h.entries[:n]
	h.siftDown(0, n)
	return top
}

// marginalSketch estimates the marginal gain of v on top of the current
// selected-union sketch — |cov ∪ block(v)| − |cov| — clamped
// non-negative (union estimates are not exactly monotone).
//
//subsim:hotpath
func (h *HLL) marginalSketch(v int32, covEst float64) float64 {
	sum, zeros := hllUnionSum(h.cov, h.block(v))
	g := hllEstimate(sum, zeros, h.m) - covEst
	if g < 0 {
		return 0
	}
	return g
}

// parallelInitialGains fills gains[v] for every node by disjoint node
// ranges. Each gain is a pure per-node function of the register file,
// so worker count cannot change a value.
func (h *HLL) parallelInitialGains(gains []float64, exclude []bool) {
	workers := h.workers
	runParallel(workers, func(w int) {
		lo := h.n * w / workers
		hi := h.n * (w + 1) / workers
		for v := lo; v < hi; v++ {
			if exclude != nil && exclude[v] {
				gains[v] = 0
				continue
			}
			sum, zeros := hllRawSum(h.block(int32(v)))
			gains[v] = hllEstimate(sum, zeros, h.m)
		}
	})
}

// SelectSeeds runs the same lazy-greedy CELF loop as the exact index,
// with marginal gains estimated by sketch union instead of posting-list
// walks. The Λᵘ prefix bound is inflated by the backend's certified
// relative error so it still upper-bounds the exact Λᵘ the certified
// influence bounds require; the trivial bound NumSets+Base always
// applies. Selection scratch is reused across calls.
func (h *HLL) SelectSeeds(opt GreedyOptions) GreedyResult {
	if h == nil {
		return GreedyResult{}
	}
	k := opt.K
	if k > h.n {
		k = h.n
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
		if h.outDeg == nil {
			panic("coverage: Revised greedy requires out-degrees")
		}
		tie = h.outDeg
	}

	if cap(h.selEntries) < h.n {
		h.selEntries = make([]hllEntry, 0, h.n)
	}
	if len(h.selGains) < h.n {
		h.selGains = make([]float64, h.n)
	}
	if len(h.selSelected) < h.n {
		h.selSelected = make([]bool, h.n) // reset to all-false after every run
	}
	heap := hllHeap{entries: h.selEntries[:0], outDeg: tie}
	gains := h.selGains[:h.n]
	selected := h.selSelected[:h.n]
	for i := range h.cov {
		h.cov[i] = 0
	}

	if h.workers > 1 && h.n >= parallelGainsMinNodes {
		h.parallelInitialGains(gains, opt.Exclude)
	} else {
		for v := 0; v < h.n; v++ {
			if opt.Exclude != nil && opt.Exclude[v] {
				gains[v] = 0
				continue
			}
			sum, zeros := hllRawSum(h.block(int32(v)))
			gains[v] = hllEstimate(sum, zeros, h.m)
		}
	}
	for v := 0; v < h.n; v++ {
		if opt.Exclude != nil && opt.Exclude[v] {
			continue
		}
		heap.entries = append(heap.entries, hllEntry{gain: gains[v], node: int32(v)})
	}
	heap.init()

	res := GreedyResult{
		Seeds:         make([]int32, 0, k),
		Coverage:      make([]int64, 0, k),
		CoverageUpper: int64(h.numSets) + opt.Base, // trivial bound; tightened below
	}
	h.upperAt(&res, opt.Base, 0, gains, selected, topL)

	covEst := 0.0
	nextBoundAt := 1
	for round := int32(1); int(round) <= k && heap.Len() > 0; round++ {
		var pick hllEntry
		for {
			pick = heap.pop()
			if pick.iter == round-1 || pick.gain <= 0 {
				// Fresh, or non-positive — no stale entry can beat it
				// since recomputed gains are clamped non-negative.
				break
			}
			pick.gain = h.marginalSketch(pick.node, covEst)
			pick.iter = round - 1
			gains[pick.node] = pick.gain
			heap.push(pick)
		}
		v := pick.node
		selected[v] = true
		gains[v] = 0
		MergeRegisters(h.cov, h.block(v))
		sum, zeros := hllRawSum(h.cov)
		covEst = hllEstimate(sum, zeros, h.m)
		res.Seeds = append(res.Seeds, v)
		res.Coverage = append(res.Coverage, opt.Base+h.clampCount(covEst))

		if int(round) == nextBoundAt || int(round) == k {
			h.upperAt(&res, opt.Base, covEst, gains, selected, topL)
			nextBoundAt *= 2
		}
	}
	// Recycle the scratch: clear the selected marks and keep the heap's
	// backing array, which push may have regrown.
	for _, v := range res.Seeds {
		selected[v] = false
	}
	h.selEntries = heap.entries[:0]
	return res
}

// upperAt tightens Λᵘ with the prefix bound at the current covered
// estimate: Base + covered + sum of the topL largest stored gains, all
// inflated by the certified relative error so the sketch-valued bound
// still dominates the exact one.
func (h *HLL) upperAt(res *GreedyResult, base int64, covEst float64, gains []float64, selected []bool, topL int) {
	b := (float64(base) + covEst + h.topSumFloat(gains, selected, topL)) * (1 + h.relErr)
	res.tightenUpper(int64(math.Ceil(b)))
}

// topSumFloat returns the sum of the topL largest float gains among
// unselected nodes via a bounded insertion buffer.
func (h *HLL) topSumFloat(gains []float64, selected []bool, topL int) float64 {
	if topL <= 0 {
		return 0
	}
	if cap(h.topScratch) < topL {
		h.topScratch = make([]float64, 0, topL)
	}
	best := h.topScratch[:0]
	for v, g := range gains {
		if selected[v] || g <= 0 {
			continue
		}
		if len(best) < topL {
			best = append(best, g)
			if len(best) == topL {
				insertionSortFloat64(best)
			}
			continue
		}
		if g > best[0] {
			best[0] = g
			for i := 1; i < len(best) && best[i] < best[i-1]; i++ {
				best[i], best[i-1] = best[i-1], best[i]
			}
		}
	}
	if len(best) < topL {
		insertionSortFloat64(best)
	}
	var s float64
	for _, g := range best {
		s += g
	}
	h.topScratch = best[:0]
	return s
}

// insertionSortFloat64 sorts ascending in place without the interface
// boxing of sort.Slice, whose closure allocation is measurable across
// CELF rounds on the selection path.
func insertionSortFloat64(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
