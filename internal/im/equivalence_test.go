package im

import (
	"testing"

	"subsim/internal/coverage"
	"subsim/internal/graph"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// equivCase pairs a generator with a graph whose weights exercise a
// distinct traversal path: vanilla geometric skipping, SUBSIM's uniform
// fast path (WC weights are uniform within each in-neighbourhood),
// SUBSIM's sorted path (skewed exponential weights), the bucketed
// sampler, and the LT generator.
type equivCase struct {
	name string
	gen  func() rrset.Generator
}

func equivCases(t *testing.T) []equivCase {
	t.Helper()
	wc, err := graph.GenErdosRenyi(1200, 9600, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	wc.AssignWC()
	skew, err := graph.GenPreferentialAttachment(1200, 6, false, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	skew.AssignExponential(rng.New(35), 4)
	lt, err := graph.GenPreferentialAttachment(1200, 6, false, rng.New(37))
	if err != nil {
		t.Fatal(err)
	}
	lt.AssignLT()
	return []equivCase{
		{"vanilla_wc", func() rrset.Generator { return rrset.NewVanilla(wc) }},
		{"subsim_uniform", func() rrset.Generator { return rrset.NewSubsim(wc) }},
		{"subsim_sorted", func() rrset.Generator { return rrset.NewSubsim(skew) }},
		{"bucketed", func() rrset.Generator { return rrset.NewSubsimBucketed(skew, true) }},
		{"lt", func() rrset.Generator { return rrset.NewLT(lt) }},
	}
}

// collect copies `count` RR sets out of a batcher's Visit stream.
func collect(b *Batcher, count int) [][]int32 {
	out := make([][]int32, 0, count)
	b.Visit(count, nil, func(set []int32) bool {
		cp := make([]int32, len(set))
		copy(cp, set)
		out = append(out, cp)
		return true
	})
	return out
}

// TestPipelineEquivalence is the end-to-end property test for the
// arena/CSR refactor: for every generator kind and worker count, the
// flat-store pipeline must yield byte-identical RR sets, identical
// greedy seeds and identical certified coverage bounds to the
// workers=1 compatibility path (Generate → Add), which reproduces the
// pre-arena slice-of-slices behaviour.
func TestPipelineEquivalence(t *testing.T) {
	const (
		count = 1500
		k     = 8
		seed  = 77
	)
	for _, c := range equivCases(t) {
		t.Run(c.name, func(t *testing.T) {
			// Reference: compat path, one worker. Generate returns
			// caller-owned copies, Add copies into the index — the exact
			// shape of the pre-change pipeline.
			refGen := c.gen()
			refB := NewBatcher(refGen, seed, 1)
			refSets := refB.Generate(count, nil)
			refStats := refB.Stats()
			n := refGen.Graph().N()
			refIdx := coverage.NewIndex(n, nil, 1)
			for _, s := range refSets {
				refIdx.Add(s)
			}
			refSel := refIdx.SelectSeeds(coverage.GreedyOptions{K: k})

			for _, workers := range []int{1, 2, 8} {
				b := NewBatcher(c.gen(), seed, workers)
				got := collect(b, count)
				if len(got) != len(refSets) {
					t.Fatalf("workers=%d: %d sets, want %d", workers, len(got), len(refSets))
				}
				for i := range got {
					if len(got[i]) != len(refSets[i]) {
						t.Fatalf("workers=%d: set %d has %d nodes, want %d",
							workers, i, len(got[i]), len(refSets[i]))
					}
					for j := range got[i] {
						if got[i][j] != refSets[i][j] {
							t.Fatalf("workers=%d: set %d diverges at position %d: %d vs %d",
								workers, i, j, got[i][j], refSets[i][j])
						}
					}
				}
				if s := b.Stats(); s != refStats {
					t.Fatalf("workers=%d: stats %+v, want %+v", workers, s, refStats)
				}

				// Fill path: generation straight into one shard per
				// worker. Selection and bounds must match exactly.
				b2 := NewBatcher(c.gen(), seed, workers)
				idx := coverage.NewIndex(n, nil, workers)
				if hits := b2.Fill(idx, count, nil); hits != 0 {
					t.Fatalf("workers=%d: unexpected sentinel hits %d", workers, hits)
				}
				if idx.NumSets() != refIdx.NumSets() {
					t.Fatalf("workers=%d: index has %d sets, want %d",
						workers, idx.NumSets(), refIdx.NumSets())
				}
				sel := idx.SelectSeeds(coverage.GreedyOptions{K: k})
				if len(sel.Seeds) != len(refSel.Seeds) {
					t.Fatalf("workers=%d: %d seeds, want %d", workers, len(sel.Seeds), len(refSel.Seeds))
				}
				for i := range sel.Seeds {
					if sel.Seeds[i] != refSel.Seeds[i] {
						t.Fatalf("workers=%d: seed %d is %d, want %d",
							workers, i, sel.Seeds[i], refSel.Seeds[i])
					}
				}
				if sel.TotalCoverage(0) != refSel.TotalCoverage(0) {
					t.Fatalf("workers=%d: coverage %d, want %d",
						workers, sel.TotalCoverage(0), refSel.TotalCoverage(0))
				}
				if sel.CoverageUpper != refSel.CoverageUpper {
					t.Fatalf("workers=%d: Λᵘ %d, want %d",
						workers, sel.CoverageUpper, refSel.CoverageUpper)
				}
			}
		})
	}
}

// TestCertifiedBoundsWorkerIndependent runs the full OPIM-C doubling
// loop (selection + Eq. 1/2 bound certification) across worker counts
// and requires bit-identical results: seeds, influence estimate and
// both certified bounds.
func TestCertifiedBoundsWorkerIndependent(t *testing.T) {
	g, err := graph.GenPreferentialAttachment(1000, 5, false, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()
	opt := Options{K: 10, Eps: 0.3, Seed: 13, Workers: 1}
	ref, err := OPIMC(rrset.NewSubsim(g), opt)
	if err != nil {
		t.Fatal(err)
	}
	if ref.LowerBound <= 0 || ref.UpperBound <= 0 {
		t.Fatalf("reference run certified no bounds: %+v", ref)
	}
	for _, workers := range []int{2, 8} {
		opt := opt
		opt.Workers = workers
		res, err := OPIMC(rrset.NewSubsim(g), opt)
		if err != nil {
			t.Fatal(err)
		}
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
		if res.LowerBound != ref.LowerBound || res.UpperBound != ref.UpperBound {
			t.Fatalf("workers=%d: bounds [%v, %v], want [%v, %v]",
				workers, res.LowerBound, res.UpperBound, ref.LowerBound, ref.UpperBound)
		}
		if res.RRStats != ref.RRStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, res.RRStats, ref.RRStats)
		}
	}
}
