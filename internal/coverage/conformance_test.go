package coverage

import (
	"testing"

	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// conformanceCases enumerates the exact index at one shard and at
// three. Three shards differs from every tested worker count, so any
// accidental shard/worker coupling would show up.
func conformanceCases() []struct {
	name   string
	shards int
} {
	return []struct {
		name   string
		shards int
	}{{"exact", 1}, {"sharded", 3}}
}

// TestEstimatorConformance drives the index at each shard count through
// the same append/query schedule and checks the Estimator contract:
// bookkeeping (N, NumSets, MemoryBytes, Workers clamp), exact counts
// against brute force, and greedy selection identical to the one-shard
// reference.
func TestEstimatorConformance(t *testing.T) {
	const n = 120
	r := rng.New(17)
	sets := randomSets(r, n, 900, 8)
	outDeg := make([]int32, n)
	for v := range outDeg {
		outDeg[v] = int32(r.Intn(30))
	}
	exactRes := indexFromSets(n, outDeg, sets).SelectSeeds(GreedyOptions{K: 8})

	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			e := NewIndex(n, outDeg, tc.shards)
			if e.N() != n {
				t.Fatalf("N() = %d, want %d", e.N(), n)
			}
			e.SetWorkers(0)
			if e.Workers() != 1 {
				t.Fatalf("SetWorkers(0) leaves Workers() = %d, want clamp to 1", e.Workers())
			}
			e.SetWorkers(4)
			if e.Workers() != 4 {
				t.Fatalf("Workers() = %d, want 4", e.Workers())
			}

			for i, s := range sets {
				e.Add(rrset.RRSet(s))
				if e.NumSets() != i+1 {
					t.Fatalf("NumSets = %d after %d adds", e.NumSets(), i+1)
				}
			}

			// Count accuracy: per-node degrees and multi-seed coverage.
			for v := int32(0); v < n; v++ {
				want := bruteCoverage(sets, []int32{v})
				got := int64(e.Degree(v))
				if got != want {
					t.Fatalf("Degree(%d) = %d, want %d", v, got, want)
				}
			}
			for _, seeds := range [][]int32{{0}, {3, 50, 90}, {1, 2, 3, 4, 5, 6, 7, 8}} {
				want := bruteCoverage(sets, seeds)
				got := e.CoverageOf(seeds)
				if got != want {
					t.Fatalf("CoverageOf(%v) = %d, want %d", seeds, got, want)
				}
			}
			if e.MemoryBytes() <= 0 {
				t.Fatal("MemoryBytes() not positive on a loaded estimator")
			}

			// Greedy selection: every shard count picks exactly what the
			// one-shard reference picks, with the same Λᵘ.
			res := e.SelectSeeds(GreedyOptions{K: 8})
			if len(res.Seeds) != len(exactRes.Seeds) {
				t.Fatalf("SelectSeeds returned %d seeds, want %d", len(res.Seeds), len(exactRes.Seeds))
			}
			for i := range exactRes.Seeds {
				if res.Seeds[i] != exactRes.Seeds[i] || res.Coverage[i] != exactRes.Coverage[i] {
					t.Fatalf("pick %d = (%d,%d), reference (%d,%d)",
						i, res.Seeds[i], res.Coverage[i], exactRes.Seeds[i], exactRes.Coverage[i])
				}
			}
			if res.CoverageUpper != exactRes.CoverageUpper {
				t.Fatalf("upper bound %d, want %d", res.CoverageUpper, exactRes.CoverageUpper)
			}
		})
	}
}

// TestEstimatorConformanceWorkerIndependence pins the repo invariant at
// each shard count: the worker bound must never change a single
// query answer or pick, including with the parallel paths forced onto
// the small test input.
func TestEstimatorConformanceWorkerIndependence(t *testing.T) {
	forceParallelAll(t)
	const n = 90
	r := rng.New(23)
	sets := randomSets(r, n, 500, 6)

	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			type answers struct {
				deg   []int
				cov   int64
				seeds []int32
				covs  []int64
				upper int64
			}
			var base *answers
			for _, w := range []int{1, 2, 8} {
				e := NewIndex(n, nil, tc.shards)
				e.SetWorkers(w)
				for _, s := range sets {
					e.Add(rrset.RRSet(s))
				}
				a := &answers{cov: e.CoverageOf([]int32{1, 4, 9})}
				for v := int32(0); v < n; v++ {
					a.deg = append(a.deg, e.Degree(v))
				}
				res := e.SelectSeeds(GreedyOptions{K: 6})
				a.seeds, a.covs, a.upper = res.Seeds, res.Coverage, res.CoverageUpper
				if base == nil {
					base = a
					continue
				}
				if a.cov != base.cov {
					t.Fatalf("W=%d: CoverageOf = %d, W=1 got %d", w, a.cov, base.cov)
				}
				for v := range a.deg {
					if a.deg[v] != base.deg[v] {
						t.Fatalf("W=%d: Degree(%d) = %d, W=1 got %d", w, v, a.deg[v], base.deg[v])
					}
				}
				if a.upper != base.upper {
					t.Fatalf("W=%d: upper %d, W=1 got %d", w, a.upper, base.upper)
				}
				for i := range base.seeds {
					if a.seeds[i] != base.seeds[i] || a.covs[i] != base.covs[i] {
						t.Fatalf("W=%d: pick %d = (%d,%d), W=1 got (%d,%d)",
							w, i, a.seeds[i], a.covs[i], base.seeds[i], base.covs[i])
					}
				}
			}
		})
	}
}

// TestEstimatorConformanceAbsorbArena checks the batch ingestion path at
// each shard count: sentinel-terminated sets are skipped and counted, and
// the surviving collection answers like one built from per-set Adds.
func TestEstimatorConformanceAbsorbArena(t *testing.T) {
	const n = 10
	sentinel := make([]bool, n)
	sentinel[9] = true
	data := []int32{0, 1, 2, 9, 3, 4, 5, 9, 6}
	ends := []int64{2, 4, 5, 6, 8, 9}
	kept := [][]int32{{0, 1}, {3}, {4}, {6}}

	for _, tc := range conformanceCases() {
		t.Run(tc.name, func(t *testing.T) {
			e := NewIndex(n, nil, tc.shards)
			if hits := e.AbsorbArena(data, ends, sentinel); hits != 2 {
				t.Fatalf("hits = %d, want 2", hits)
			}
			if e.NumSets() != len(kept) {
				t.Fatalf("NumSets = %d, want %d", e.NumSets(), len(kept))
			}
			ref := NewIndex(n, nil, tc.shards)
			for _, s := range kept {
				ref.Add(rrset.RRSet(s))
			}
			for v := int32(0); v < n; v++ {
				if got, want := e.Degree(v), ref.Degree(v); got != want {
					t.Fatalf("Degree(%d) = %d, want %d (per-set reference)", v, got, want)
				}
			}
			e2 := NewIndex(n, nil, tc.shards)
			if hits := e2.AbsorbArena(data, ends, nil); hits != 0 || e2.NumSets() != len(ends) {
				t.Fatalf("nil sentinel: hits=%d sets=%d, want 0/%d", hits, e2.NumSets(), len(ends))
			}
		})
	}
}
