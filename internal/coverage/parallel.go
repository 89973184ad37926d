// Parallel coverage kernels: the lane runner, the per-lane partial
// reduce, and the node-range-partitioned initial-gain pass of
// SelectSeeds.
//
// Every parallel pass is byte-identical to its serial counterpart — the
// repo's worker-independence invariant (TestPipelineEquivalence) demands
// it — because every goroutine writes only into ranges that are disjoint
// by construction: shard rebuilds and per-round reduces give each lane
// whole shards, and the initial-gain pass partitions the node space into
// equal ranges with per-range entry slots derived from a prefix sum over
// the non-excluded counts, so the CELF entry order (ascending node id)
// is preserved. Determinism therefore never depends on goroutine
// scheduling: the worker count only decides how the work is
// partitioned, never what is written where.
package coverage

import (
	"sync"

	"subsim/internal/obs/timeline"
)

// parallelBuildMinDelta is the smallest delta (in node ids, across all
// shards) worth fanning out a rebuild for; below it the goroutine
// handoff dominates. A var, not a const, so the equivalence tests can
// force the parallel path on tiny inputs.
var parallelBuildMinDelta = 1 << 12

// parallelGainsMinNodes is the smallest node count worth fanning out
// the SelectSeeds initial-gain pass for.
var parallelGainsMinNodes = 1 << 12

// parallelReduceMinPostings is the posting mass (across all shards) of
// the heap-top node below which a marginal recompute or covered-bit
// update stays serial; tiny posting lists are cheaper to walk inline
// than to fan out.
var parallelReduceMinPostings = 1 << 11

// runParallel executes fn(w) for w in [0, workers): workers-1 goroutines
// plus the calling goroutine, joining before it returns. fn must confine
// its writes to worker-w-owned ranges.
//
//subsim:parallel
func runParallel(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	fn(0)
	wg.Wait()
}

// runTimed is runParallel with per-worker timeline records: when a
// timeline is attached, worker w's execution of fn lands as one interval
// on ring w. The wrapper closure is allocated only on the instrumented
// path — with no timeline it delegates straight to runParallel, keeping
// the uninstrumented pipeline allocation-free. The single-writer
// discipline holds because runParallel joins before returning: the
// goroutine acting as worker w is ring w's only writer for the duration
// of the pass.
func (x *Index) runTimed(phase timeline.Phase, workers int, fn func(w int)) {
	if x.tl == nil {
		runParallel(workers, fn)
		return
	}
	runParallel(workers, func(w int) {
		r := x.tl.Worker(w)
		t0 := r.Now()
		fn(w)
		r.Record(phase, t0, r.Now())
	})
}

// growPartial sizes the per-lane partial-aggregate scratch.
func (x *Index) growPartial(lanes int) {
	if cap(x.partial) < lanes {
		x.partial = make([]int64, lanes)
	}
	x.partial = x.partial[:lanes]
}

// reducePartials folds the per-lane partials in the fixed pairwise tree
// documented in the package comment: halve the live prefix, adding the
// upper half onto the lower, until one value remains. The fold mutates
// p (it is lane scratch).
func reducePartials(p []int64) int64 {
	if len(p) == 0 {
		return 0
	}
	for n := len(p); n > 1; {
		h := (n + 1) / 2
		for i := 0; i+h < n; i++ {
			p[i] += p[i+h]
		}
		n = h
	}
	return p[0]
}

// parallelInitialGains is the partitioned first CELF round: gains[v] is
// the sum of v's posting lengths across shards, and entries are filled
// through per-range prefix-summed slots so the order (ascending node id,
// exclusions skipped) matches the serial loop exactly. entries must
// have capacity >= n.
func (x *Index) parallelInitialGains(entries []celfEntry, gains []int64, exclude []bool) []celfEntry {
	workers := x.workers
	x.growPartial(workers)
	x.runTimed(timeline.PhaseGains, workers, func(w int) {
		lo := x.n * w / workers
		hi := x.n * (w + 1) / workers
		x.partial[w] = x.gainsRange(gains, exclude, lo, hi)
	})
	var totalEntries int64
	for w := 0; w < workers; w++ {
		totalEntries, x.partial[w] = totalEntries+x.partial[w], totalEntries // partial becomes the slot base
	}
	entries = entries[:totalEntries]
	x.runTimed(timeline.PhaseGains, workers, func(w int) {
		lo := x.n * w / workers
		hi := x.n * (w + 1) / workers
		fillEntriesRange(entries, gains, exclude, lo, hi, int(x.partial[w]))
	})
	return entries
}

// gainsRange writes the shard-summed initial gain of every non-excluded
// node in [lo, hi) into the staging array and returns how many there
// are.
//
//subsim:hotpath
func (x *Index) gainsRange(gains []int64, exclude []bool, lo, hi int) int64 {
	var cnt int64
	for v := lo; v < hi; v++ {
		if exclude != nil && exclude[v] {
			continue
		}
		var g int64
		for s := range x.shards {
			sh := &x.shards[s]
			g += sh.heads[v+1] - sh.heads[v]
		}
		gains[v] = g
		cnt++
	}
	return cnt
}

// fillEntriesRange writes the CELF entries of the non-excluded nodes in
// [lo, hi) into their prefix-summed slots.
//
//subsim:hotpath
func fillEntriesRange(entries []celfEntry, gains []int64, exclude []bool, lo, hi, slot int) {
	for v := lo; v < hi; v++ {
		if exclude != nil && exclude[v] {
			continue
		}
		entries[slot] = celfEntry{gain: gains[v], node: int32(v), iter: 0}
		slot++
	}
}
