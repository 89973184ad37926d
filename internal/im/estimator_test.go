package im

import (
	"math"
	"testing"

	"subsim/internal/coverage"
	"subsim/internal/graph"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// TestFillDispatchesExact pins the estimator seam: Batcher.Fill through
// the Estimator interface into an exact *coverage.Index with one shard
// per worker must select the same seeds with the same bounds as the
// one-worker, one-shard reference, for every generator kind and worker
// count.
func TestFillDispatchesExact(t *testing.T) {
	const (
		count = 1200
		k     = 8
		seed  = 77
	)
	for _, c := range equivCases(t) {
		t.Run(c.name, func(t *testing.T) {
			refGen := c.gen()
			n := refGen.Graph().N()
			refB := NewBatcher(refGen, seed, 1)
			refIdx := coverage.NewIndex(n, nil, 1)
			refB.Fill(refIdx, count, nil)
			refSel := refIdx.SelectSeeds(coverage.GreedyOptions{K: k})
			for _, workers := range []int{1, 2, 8} {
				b := NewBatcher(c.gen(), seed, workers)
				idx := coverage.NewIndex(n, nil, workers)
				idx.SetWorkers(workers)
				var est coverage.Estimator = idx
				if hits := b.Fill(est, count, nil); hits != 0 {
					t.Fatalf("workers=%d: unexpected sentinel hits %d", workers, hits)
				}
				if est.Kind() != coverage.EstimatorExact {
					t.Fatalf("workers=%d: exact index reports kind %v", workers, est.Kind())
				}
				sel := est.SelectSeeds(coverage.GreedyOptions{K: k})
				if len(sel.Seeds) != len(refSel.Seeds) {
					t.Fatalf("workers=%d: %d seeds, want %d", workers, len(sel.Seeds), len(refSel.Seeds))
				}
				for i := range sel.Seeds {
					if sel.Seeds[i] != refSel.Seeds[i] {
						t.Fatalf("workers=%d: seed %d is %d, want %d",
							workers, i, sel.Seeds[i], refSel.Seeds[i])
					}
				}
				if sel.TotalCoverage(0) != refSel.TotalCoverage(0) || sel.CoverageUpper != refSel.CoverageUpper {
					t.Fatalf("workers=%d: coverage %d/%d, want %d/%d", workers,
						sel.TotalCoverage(0), sel.CoverageUpper,
						refSel.TotalCoverage(0), refSel.CoverageUpper)
				}
			}
		})
	}
}

// estimatorTestGraph builds the property-test graph shared by the
// backend-accuracy tests.
func estimatorTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.GenPreferentialAttachment(1000, 5, false, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()
	return g
}

// runWith runs OPIM-C with the given estimator/bound configuration.
func runWith(t *testing.T, g *graph.Graph, kind coverage.EstimatorKind, bound BoundKind, workers int) *Result {
	t.Helper()
	res, err := OPIMC(rrset.NewSubsim(g), Options{
		K: 10, Eps: 0.3, Seed: 13, Workers: workers, Estimator: kind, Bound: bound,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExactBackendUnchangedByOptions proves threading the estimator
// options through leaves the default exact path bit-identical: an
// explicit Estimator: EstimatorExact run matches the zero-value Options
// run exactly, at every worker count.
func TestExactBackendUnchangedByOptions(t *testing.T) {
	g := estimatorTestGraph(t)
	ref, err := OPIMC(rrset.NewSubsim(g), Options{K: 10, Eps: 0.3, Seed: 13, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		res := runWith(t, g, coverage.EstimatorExact, BoundIMM, workers)
		if len(res.Seeds) != len(ref.Seeds) {
			t.Fatalf("workers=%d: %d seeds, want %d", workers, len(res.Seeds), len(ref.Seeds))
		}
		for i := range res.Seeds {
			if res.Seeds[i] != ref.Seeds[i] {
				t.Fatalf("workers=%d: seed %d is %d, want %d", workers, i, res.Seeds[i], ref.Seeds[i])
			}
		}
		if res.Influence != ref.Influence ||
			res.LowerBound != ref.LowerBound || res.UpperBound != ref.UpperBound {
			t.Fatalf("workers=%d: results diverged from the seed path: %+v vs %+v", workers, res, ref)
		}
		if res.RRStats != ref.RRStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, res.RRStats, ref.RRStats)
		}
	}
}

// TestSketchBackendAccuracy is the ε-accuracy property test of the HLL
// backend: across worker counts the sketch run must be worker-
// independent, and its influence estimate must land within the sketch's
// certified relative error (with 4σ slack) of the exact backend's.
func TestSketchBackendAccuracy(t *testing.T) {
	g := estimatorTestGraph(t)
	exact := runWith(t, g, coverage.EstimatorExact, BoundIMM, 1)
	relErr := coverage.NewHLL(1, nil, 0).RelError()

	ref := runWith(t, g, coverage.EstimatorHLL, BoundIMM, 1)
	if tol := 4 * relErr * exact.Influence; math.Abs(ref.Influence-exact.Influence) > tol+3 {
		t.Fatalf("sketch influence %v vs exact %v exceeds tolerance %v",
			ref.Influence, exact.Influence, tol)
	}
	if ref.LowerBound <= 0 || ref.UpperBound < ref.LowerBound {
		t.Fatalf("sketch run certified nonsense bounds: %+v", ref)
	}
	for _, workers := range []int{2, 8} {
		res := runWith(t, g, coverage.EstimatorHLL, BoundIMM, workers)
		if len(res.Seeds) != len(ref.Seeds) {
			t.Fatalf("workers=%d: %d seeds, want %d", workers, len(res.Seeds), len(ref.Seeds))
		}
		for i := range res.Seeds {
			if res.Seeds[i] != ref.Seeds[i] {
				t.Fatalf("workers=%d: seed %d is %d, want %d", workers, i, res.Seeds[i], ref.Seeds[i])
			}
		}
		if res.Influence != ref.Influence {
			t.Fatalf("workers=%d: influence %v, want %v", workers, res.Influence, ref.Influence)
		}
	}
}

// TestTightBoundSavesSamples runs the standard configuration under both
// analyses: the tightened run must report θ_tight ≤ θ_worst, stay a
// valid certified result, and both θs must be visible in the result.
func TestTightBoundSavesSamples(t *testing.T) {
	g := estimatorTestGraph(t)
	worst := runWith(t, g, coverage.EstimatorExact, BoundIMM, 1)
	tight := runWith(t, g, coverage.EstimatorExact, BoundTight, 1)
	for name, res := range map[string]*Result{"worst": worst, "tight": tight} {
		if res.ThetaWorstCase < 1 || res.ThetaTight < 1 {
			t.Fatalf("%s run did not report both budgets: %+v", name, res)
		}
		if res.ThetaTight > res.ThetaWorstCase {
			t.Fatalf("%s run: tightened θ %d exceeds worst-case %d",
				name, res.ThetaTight, res.ThetaWorstCase)
		}
	}
	if tight.LowerBound <= 0 || tight.Approx <= 0 {
		t.Fatalf("tightened run certified no bounds: %+v", tight)
	}
	// The tightened budget must never make the run draw more samples.
	if tight.RRStats.Sets > worst.RRStats.Sets {
		t.Fatalf("tightened run drew more RR sets (%d) than worst-case (%d)",
			tight.RRStats.Sets, worst.RRStats.Sets)
	}
}

// TestAlgorithmsRunWithSketch smokes every algorithm chassis against the
// HLL backend and the tightened bound: valid seeds, sane influence, and
// both reported budgets ordered.
func TestAlgorithmsRunWithSketch(t *testing.T) {
	g := estimatorTestGraph(t)
	opt := Options{K: 5, Eps: 0.35, Seed: 7, Workers: 2,
		Estimator: coverage.EstimatorHLL, Bound: BoundTight}
	algs := map[string]func(rrset.Generator, Options) (*Result, error){
		"opimc": OPIMC, "imm": IMM, "ssa": SSA, "timplus": TIMPlus,
	}
	for name, run := range algs {
		t.Run(name, func(t *testing.T) {
			res, err := run(rrset.NewSubsim(g), opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Seeds) != opt.K {
				t.Fatalf("%d seeds, want %d", len(res.Seeds), opt.K)
			}
			if res.Influence <= 0 || res.Influence > float64(g.N()) {
				t.Fatalf("influence %v out of range", res.Influence)
			}
			if res.ThetaWorstCase < 1 || res.ThetaTight < 1 || res.ThetaTight > res.ThetaWorstCase {
				t.Fatalf("budgets not reported/ordered: worst %d tight %d",
					res.ThetaWorstCase, res.ThetaTight)
			}
		})
	}
}
