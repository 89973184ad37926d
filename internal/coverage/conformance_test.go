package coverage

import (
	"math"
	"testing"

	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// Compile-time: every backend satisfies the Estimator contract.
var (
	_ Estimator = (*Index)(nil)
	_ Estimator = (*HLL)(nil)
)

// estimatorCase is one backend under conformance test. tol(want)
// returns the absolute slack allowed on a count query whose true value
// is want: zero for the exact backends, RelError-scaled (with a small
// additive floor for tiny counts) for sketches.
type estimatorCase struct {
	name string
	make func(n int, outDeg []int32) Estimator
	kind EstimatorKind
	tol  func(e Estimator, want int64) int64
}

func exactTol(Estimator, int64) int64 { return 0 }

func sketchTol(e Estimator, want int64) int64 {
	// 6 standard errors plus a floor of 4: deterministic inputs make the
	// check reproducible, the generous band keeps it honest about what
	// the backend certifies rather than tuned to one RNG stream.
	return int64(math.Ceil(6*e.RelError()*float64(want))) + 4
}

// conformanceCases enumerates the two coverage backends, the exact one
// at one shard and at three. Three shards differs from every tested
// worker count, so any accidental shard/worker coupling would show up.
func conformanceCases() []estimatorCase {
	return []estimatorCase{
		{
			name: "exact",
			make: func(n int, outDeg []int32) Estimator { return NewIndex(n, outDeg, 1) },
			kind: EstimatorExact,
			tol:  exactTol,
		},
		{
			name: "hll",
			make: func(n int, outDeg []int32) Estimator { return NewHLL(n, outDeg, 0) },
			kind: EstimatorHLL,
			tol:  sketchTol,
		},
		{
			name: "sharded",
			make: func(n int, outDeg []int32) Estimator { return NewIndex(n, outDeg, 3) },
			kind: EstimatorExact,
			tol:  exactTol,
		},
	}
}

// TestEstimatorConformance drives every backend through the same
// append/query schedule and checks the whole interface contract:
// bookkeeping (N, NumSets, Kind, RelError, MemoryBytes, Workers clamp),
// count accuracy against brute force within the backend's certified
// tolerance, sentinel handling on the batch ingestion path, and greedy
// selection quality.
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
			e := tc.make(n, outDeg)
			if e.N() != n {
				t.Fatalf("N() = %d, want %d", e.N(), n)
			}
			if k, err := ParseEstimator(e.Kind().String()); e.Kind() != tc.kind || err != nil || k != tc.kind {
				t.Fatalf("Kind() = %v (%q), want %v", e.Kind(), e.Kind().String(), tc.kind)
			}
			if re := e.RelError(); re < 0 || (tc.tol(e, 1000) == 0) != (re == 0) {
				t.Fatalf("RelError() = %g inconsistent with tolerance model", re)
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
				if d := got - want; d < -tc.tol(e, want) || d > tc.tol(e, want) {
					t.Fatalf("Degree(%d) = %d, want %d ± %d", v, got, want, tc.tol(e, want))
				}
			}
			for _, seeds := range [][]int32{{0}, {3, 50, 90}, {1, 2, 3, 4, 5, 6, 7, 8}} {
				want := bruteCoverage(sets, seeds)
				got := e.CoverageOf(seeds)
				if d := got - want; d < -tc.tol(e, want) || d > tc.tol(e, want) {
					t.Fatalf("CoverageOf(%v) = %d, want %d ± %d", seeds, got, want, tc.tol(e, want))
				}
			}
			if e.MemoryBytes() <= 0 {
				t.Fatal("MemoryBytes() not positive on a loaded estimator")
			}

			// Greedy quality: the true (brute-force) coverage of the picked
			// seeds must be within 10% of the exact backend's pick — exact
			// backends match it exactly, the sketch may trade a little.
			res := e.SelectSeeds(GreedyOptions{K: 8})
			if len(res.Seeds) != 8 {
				t.Fatalf("SelectSeeds returned %d seeds, want 8", len(res.Seeds))
			}
			got := bruteCoverage(sets, res.Seeds)
			want := bruteCoverage(sets, exactRes.Seeds)
			if float64(got) < 0.9*float64(want) {
				t.Fatalf("greedy quality: picked coverage %d < 90%% of exact's %d", got, want)
			}
			if e.RelError() == 0 {
				for i := range exactRes.Seeds {
					if res.Seeds[i] != exactRes.Seeds[i] || res.Coverage[i] != exactRes.Coverage[i] {
						t.Fatalf("exact-class backend diverged from Index at pick %d: (%d,%d) vs (%d,%d)",
							i, res.Seeds[i], res.Coverage[i], exactRes.Seeds[i], exactRes.Coverage[i])
					}
				}
				if res.CoverageUpper != exactRes.CoverageUpper {
					t.Fatalf("exact-class upper bound %d, want %d", res.CoverageUpper, exactRes.CoverageUpper)
				}
			}
		})
	}
}

// TestEstimatorConformanceWorkerIndependence pins the repo invariant on
// every backend at once: the worker bound must never change a single
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
				e := tc.make(n, nil)
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

// TestEstimatorConformanceAbsorbArena checks the batch ingestion path on
// every backend: sentinel-terminated sets are skipped and counted, and
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
			e := tc.make(n, nil)
			if hits := e.AbsorbArena(data, ends, sentinel); hits != 2 {
				t.Fatalf("hits = %d, want 2", hits)
			}
			if e.NumSets() != len(kept) {
				t.Fatalf("NumSets = %d, want %d", e.NumSets(), len(kept))
			}
			ref := tc.make(n, nil)
			for _, s := range kept {
				ref.Add(rrset.RRSet(s))
			}
			for v := int32(0); v < n; v++ {
				if got, want := e.Degree(v), ref.Degree(v); got != want {
					t.Fatalf("Degree(%d) = %d, want %d (per-set reference)", v, got, want)
				}
			}
			e2 := tc.make(n, nil)
			if hits := e2.AbsorbArena(data, ends, nil); hits != 0 || e2.NumSets() != len(ends) {
				t.Fatalf("nil sentinel: hits=%d sets=%d, want 0/%d", hits, e2.NumSets(), len(ends))
			}
		})
	}
}
