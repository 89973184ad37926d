package coverage

import (
	"math"
	"testing"

	"subsim/internal/rng"
)

// forceParallel drops the size thresholds so the parallel build and
// gains paths run even on the tiny inputs the tests use, restoring the
// originals on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	buildMin, gainsMin := parallelBuildMinDelta, parallelGainsMinNodes
	parallelBuildMinDelta, parallelGainsMinNodes = 0, 0
	t.Cleanup(func() {
		parallelBuildMinDelta, parallelGainsMinNodes = buildMin, gainsMin
	})
}

// randomSets draws count RR-set-shaped slices over n nodes with sizes
// in [1, maxLen]; ids may repeat across sets but are unique within one
// (matching real RR sets, though the index does not require it).
func randomSets(r *rng.Source, n, count, maxLen int) [][]int32 {
	out := make([][]int32, count)
	seen := make([]bool, n)
	for i := range out {
		l := 1 + r.Intn(maxLen)
		set := make([]int32, 0, l)
		for len(set) < l {
			v := int32(r.Intn(n))
			if !seen[v] {
				seen[v] = true
				set = append(set, v)
			}
		}
		for _, v := range set {
			seen[v] = false
		}
		out[i] = set
	}
	return out
}

// TestParallelBuildMatchesSerial drives two indexes with the same
// shard count through the same batched append/query schedule — one with
// a single lane, one with the parallel shard rebuild forced on — and
// demands byte-identical per-shard CSR state after every delta rebuild,
// for several shard and worker counts.
func TestParallelBuildMatchesSerial(t *testing.T) {
	forceParallel(t)
	const n = 97
	for _, shards := range []int{2, 3, 8} {
		for _, workers := range []int{2, 3, 8} {
			r := rng.New(42)
			serial := NewIndex(n, nil, shards)
			par := NewIndex(n, nil, shards)
			par.SetWorkers(workers)
			if par.Workers() != workers {
				t.Fatalf("Workers() = %d", par.Workers())
			}
			// Batches of varying size, including empty deltas and a batch
			// bigger than the node count.
			for _, batch := range []int{1, 7, 0, 64, 3, 200, 1} {
				for _, set := range randomSets(r, n, batch, 9) {
					serial.Add(set)
					par.Add(set)
				}
				serial.ensureIndexed()
				par.ensureIndexed()
				for s := range serial.shards {
					a, b := &serial.shards[s], &par.shards[s]
					if a.indexed != b.indexed {
						t.Fatalf("S=%d W=%d shard %d: indexed %d vs %d", shards, workers, s, b.indexed, a.indexed)
					}
					for v := range a.heads {
						if a.heads[v] != b.heads[v] {
							t.Fatalf("S=%d W=%d shard %d: heads[%d] = %d vs %d", shards, workers, s, v, b.heads[v], a.heads[v])
						}
					}
					for i := range a.postings {
						if a.postings[i] != b.postings[i] {
							t.Fatalf("S=%d W=%d shard %d: postings[%d] = %d vs %d", shards, workers, s, i, b.postings[i], a.postings[i])
						}
					}
				}
			}
		}
	}
}

// TestParallelGainsMatchSerial compares full SelectSeeds outcomes —
// seeds, coverages, upper bound — between a serial one-shard index and
// a multi-shard one with the parallel initial-gain pass forced, with and
// without exclusions.
func TestParallelGainsMatchSerial(t *testing.T) {
	forceParallel(t)
	const n = 61
	r := rng.New(7)
	sets := randomSets(r, n, 300, 6)
	exclude := make([]bool, n)
	for v := 0; v < n; v += 5 {
		exclude[v] = true
	}
	outDeg := make([]int32, n)
	for v := range outDeg {
		outDeg[v] = int32(r.Intn(50))
	}
	for _, workers := range []int{2, 8} {
		serial := indexFromSets(n, outDeg, sets)
		par := shardIndexFromSets(n, workers, outDeg, sets)
		par.SetWorkers(workers)
		for _, opt := range []GreedyOptions{
			{K: 1},
			{K: 8},
			{K: n},
			{K: 5, Revised: true},
			{K: 6, Exclude: exclude, Base: 11, TopL: 9},
		} {
			a := serial.SelectSeeds(opt)
			b := par.SelectSeeds(opt)
			if len(a.Seeds) != len(b.Seeds) {
				t.Fatalf("workers=%d opt=%+v: %d vs %d seeds", workers, opt, len(b.Seeds), len(a.Seeds))
			}
			for i := range a.Seeds {
				if a.Seeds[i] != b.Seeds[i] || a.Coverage[i] != b.Coverage[i] {
					t.Fatalf("workers=%d opt=%+v: pick %d = (%d,%d) vs (%d,%d)",
						workers, opt, i, b.Seeds[i], b.Coverage[i], a.Seeds[i], a.Coverage[i])
				}
			}
			if a.CoverageUpper != b.CoverageUpper {
				t.Fatalf("workers=%d opt=%+v: upper %d vs %d", workers, opt, b.CoverageUpper, a.CoverageUpper)
			}
		}
	}
}

// TestParallelBuildIncrementalDeltas forces the parallel shard rebuild
// on a growing index where most rebuilds are small deltas over a large
// existing CSR — the regime where the block-copy of old postings
// dominates — and cross-checks degrees against recounting from scratch.
func TestParallelBuildIncrementalDeltas(t *testing.T) {
	forceParallel(t)
	const n = 40
	r := rng.New(99)
	par := NewIndex(n, nil, 4)
	par.SetWorkers(4)
	var all [][]int32
	for round := 0; round < 30; round++ {
		batch := randomSets(r, n, 1+r.Intn(5), 5)
		for _, set := range batch {
			par.Add(set)
			all = append(all, set)
		}
		deg := make(map[int32]int)
		for _, set := range all {
			for _, v := range set {
				deg[v]++
			}
		}
		for v := int32(0); v < n; v++ {
			if got := par.Degree(v); got != deg[v] {
				t.Fatalf("round %d: Degree(%d) = %d, want %d", round, v, got, deg[v])
			}
		}
	}
}

// TestRunWraparound exercises the uint32 stamp wraparound: when the run
// counter overflows, newRun must clear all covered stamps so stale
// stamps from 4 billion runs ago can never alias a live run id, and
// CoverageOf must keep returning exact counts across the boundary.
func TestRunWraparound(t *testing.T) {
	sets := [][]int32{{0, 1}, {1, 2}, {3}, {0, 3}, {4}}
	x := indexFromSets(5, nil, sets)
	seeds := []int32{0, 4}
	want := bruteCoverage(sets, seeds)
	if got := x.CoverageOf(seeds); got != want {
		t.Fatalf("pre-wrap CoverageOf = %d, want %d", got, want)
	}

	// Park the counter one run before overflow. The covered stamps still
	// hold the (now enormous) run id from the call above.
	sh := &x.shards[0]
	sh.run = math.MaxUint32
	sh.newRun()
	if sh.run != 1 {
		t.Fatalf("run after wraparound = %d, want 1", sh.run)
	}
	for i, c := range sh.covered {
		if c != 0 {
			t.Fatalf("covered[%d] = %d after wraparound, want 0", i, c)
		}
	}

	// Every query after the wrap must still be exact — in particular the
	// first run id reused after wrapping (1) must not see phantom
	// coverage from stamps written before the reset.
	if got := x.CoverageOf(seeds); got != want {
		t.Fatalf("post-wrap CoverageOf = %d, want %d", got, want)
	}
	if got := x.CoverageOf([]int32{1}); got != 2 {
		t.Fatalf("post-wrap CoverageOf({1}) = %d, want 2", got)
	}
	// Greedy picks node 0 (covers sets 0 and 3), then node 1 (set 1).
	res := x.SelectSeeds(GreedyOptions{K: 2})
	if res.TotalCoverage(0) != 3 {
		t.Fatalf("post-wrap selection coverage = %d", res.TotalCoverage(0))
	}

	// Cross the boundary again mid-sequence: interleave queries around
	// the exact overflow point and compare against brute force.
	sh.run = math.MaxUint32 - 2
	for i := 0; i < 6; i++ {
		if got := x.CoverageOf(seeds); got != want {
			t.Fatalf("wrap sequence step %d: CoverageOf = %d, want %d", i, got, want)
		}
	}
}

// TestSelectSeedsScratchReuse verifies that the per-run selection
// scratch really is recycled: repeated selections on a warm index must
// not allocate beyond the returned Seeds/Coverage slices.
func TestSelectSeedsScratchReuse(t *testing.T) {
	const n = 200
	r := rng.New(3)
	x := indexFromSets(n, nil, randomSets(r, n, 2000, 8))
	x.SelectSeeds(GreedyOptions{K: 10}) // warm: builds index + scratch
	allocs := testing.AllocsPerRun(20, func() {
		x.SelectSeeds(GreedyOptions{K: 10})
	})
	// Seeds + Coverage are the only per-call allocations.
	if allocs > 3 {
		t.Fatalf("SelectSeeds allocates %.1f objects/run on a warm index", allocs)
	}
}

// TestRebuildScratchReuse verifies the double-buffered CSR rebuild:
// after the first build at steady-state capacity, appending and
// re-indexing a same-sized delta must not allocate (the old heads and
// postings become the next build's scratch).
func TestRebuildScratchReuse(t *testing.T) {
	const n = 100
	r := rng.New(5)
	x := NewIndex(n, nil, 1)
	// Warm to steady state: several rebuilds so heads/postings/covered
	// and their scratch twins all reach final capacity.
	warm := randomSets(r, n, 4000, 6)
	for i, set := range warm {
		x.Add(set)
		if i%500 == 0 {
			x.Degree(0)
		}
	}
	x.Degree(0)
	sets := randomSets(r, n, 40, 6)
	i := 0
	allocs := testing.AllocsPerRun(10, func() {
		x.Add(sets[i%len(sets)])
		i++
		x.Degree(0) // forces the delta rebuild
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state delta rebuild allocates %.1f objects/run", allocs)
	}
}
