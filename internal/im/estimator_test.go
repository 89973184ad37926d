package im

import (
	"testing"

	"subsim/internal/coverage"
	"subsim/internal/graph"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// TestFillDispatchesExact pins the estimator seam: NewEstimator must
// hand out the exact *coverage.Index, one shard per worker, and
// Batcher.Fill into it must select the same seeds with the same bounds
// as the one-worker, one-shard reference, for every generator kind and
// worker count.
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
				est := NewEstimator(n, nil, Options{Workers: workers}, nil)
				idx, ok := est.(*coverage.Index)
				if !ok {
					t.Fatalf("workers=%d: NewEstimator returned %T, want *coverage.Index", workers, est)
				}
				if idx.NumShards() != workers || idx.Workers() != workers {
					t.Fatalf("workers=%d: index has %d shards, %d workers", workers, idx.NumShards(), idx.Workers())
				}
				if hits := b.Fill(idx, count, nil); hits != 0 {
					t.Fatalf("workers=%d: unexpected sentinel hits %d", workers, hits)
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
// run-level bound tests.
func estimatorTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.GenPreferentialAttachment(1000, 5, false, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()
	return g
}

// runWith runs OPIM-C with the given bound and worker count.
func runWith(t *testing.T, g *graph.Graph, bound BoundKind, workers int) *Result {
	t.Helper()
	res, err := OPIMC(rrset.NewSubsim(g), Options{
		K: 10, Eps: 0.3, Seed: 13, Workers: workers, Bound: bound,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTightBoundSavesSamples runs the standard configuration under both
// analyses: the tightened run must report θ_tight ≤ θ_worst, stay a
// valid certified result, and both θs must be visible in the result.
func TestTightBoundSavesSamples(t *testing.T) {
	g := estimatorTestGraph(t)
	worst := runWith(t, g, BoundIMM, 1)
	tight := runWith(t, g, BoundTight, 1)
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

// TestAlgorithmsRunWithTightBound smokes every algorithm chassis under
// the tightened bound: valid seeds, sane influence, and both reported
// budgets ordered.
func TestAlgorithmsRunWithTightBound(t *testing.T) {
	g := estimatorTestGraph(t)
	opt := Options{K: 5, Eps: 0.35, Seed: 7, Workers: 2, Bound: BoundTight}
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
