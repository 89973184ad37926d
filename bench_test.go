package subsim_test

// One testing.B benchmark per table/figure of the paper's evaluation
// (Section 7), plus ablation benches for the design choices called out in
// DESIGN.md. These run the same code paths as cmd/imbench but at a size
// suited to `go test -bench=.`; the full parameter sweeps live in the
// imbench binary.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"subsim"
	"subsim/internal/bench"
	"subsim/internal/coverage"
	"subsim/internal/rng"
	"subsim/internal/rrset"
	"subsim/internal/sampling"
)

// benchGraphs caches the benchmark networks across benchmarks.
var benchGraphs sync.Map

type benchKey struct {
	n, deg int
	model  string
}

func benchGraph(b *testing.B, n, deg int, model string) *subsim.Graph {
	b.Helper()
	key := benchKey{n, deg, model}
	if g, ok := benchGraphs.Load(key); ok {
		return g.(*subsim.Graph)
	}
	g, err := subsim.GenPreferentialAttachment(n, deg, false, 99)
	if err != nil {
		b.Fatal(err)
	}
	switch model {
	case "wc":
		g.AssignWC()
	case "wcvariant":
		g.AssignWCVariant(3)
	case "uniform":
		// Calibrated once so the average RR set size is "high
		// influence" for this graph (~n/10).
		p := bench.CalibrateUniform(g, float64(n)/10, 5)
		g.AssignUniform(p)
	case "exp":
		if err := subsim.AssignSkewed(g, subsim.ModelExponential, 5); err != nil {
			b.Fatal(err)
		}
	case "weibull":
		if err := subsim.AssignSkewed(g, subsim.ModelWeibull, 5); err != nil {
			b.Fatal(err)
		}
	}
	benchGraphs.Store(key, g)
	return g
}

func benchAlgorithm(b *testing.B, g *subsim.Graph, alg subsim.Algorithm, k int) {
	b.Helper()
	b.ReportAllocs()
	var last *subsim.Result
	for i := 0; i < b.N; i++ {
		res, err := subsim.Maximize(g, alg, subsim.Options{
			K: k, Eps: 0.2, Seed: uint64(i + 1), Workers: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.RRStats.Sets), "rrsets")
	b.ReportMetric(last.RRStats.AvgSize(), "avg|R|")
}

// --- Table 2 ---------------------------------------------------------

func BenchmarkTable2Datasets(b *testing.B) {
	ds := bench.QuickDatasets()
	for i := 0; i < b.N; i++ {
		for _, d := range ds {
			if _, err := d.Generate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 1: IM under WC -------------------------------------------

func BenchmarkFig1_IMM(b *testing.B) {
	benchAlgorithm(b, benchGraph(b, 5000, 8, "wc"), subsim.AlgIMM, 50)
}
func BenchmarkFig1_SSA(b *testing.B) {
	benchAlgorithm(b, benchGraph(b, 5000, 8, "wc"), subsim.AlgSSA, 50)
}
func BenchmarkFig1_OPIMC(b *testing.B) {
	benchAlgorithm(b, benchGraph(b, 5000, 8, "wc"), subsim.AlgOPIMC, 50)
}
func BenchmarkFig1_SUBSIM(b *testing.B) {
	benchAlgorithm(b, benchGraph(b, 5000, 8, "wc"), subsim.AlgSUBSIM, 50)
}

// --- Figure 2: RR generation under skewed weights --------------------

func benchRRGeneration(b *testing.B, model string, kind subsim.GeneratorKind) {
	g := benchGraph(b, 5000, 24, model)
	gen := subsim.NewRRGenerator(g, kind)
	r := rng.New(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rrset.GenerateRandom(gen, r, nil)
	}
	st := gen.Stats()
	b.ReportMetric(float64(st.EdgesExamined)/float64(st.Sets), "edges/set")
}

func BenchmarkFig2_Exp_Vanilla(b *testing.B)  { benchRRGeneration(b, "exp", subsim.GenVanilla) }
func BenchmarkFig2_Exp_Subsim(b *testing.B)   { benchRRGeneration(b, "exp", subsim.GenSubsim) }
func BenchmarkFig2_Exp_Bucketed(b *testing.B) { benchRRGeneration(b, "exp", subsim.GenSubsimBucketed) }
func BenchmarkFig2_Exp_BucketedJump(b *testing.B) {
	benchRRGeneration(b, "exp", subsim.GenSubsimBucketedJump)
}
func BenchmarkFig2_Weibull_Vanilla(b *testing.B) { benchRRGeneration(b, "weibull", subsim.GenVanilla) }
func BenchmarkFig2_Weibull_Subsim(b *testing.B)  { benchRRGeneration(b, "weibull", subsim.GenSubsim) }

// --- Figure 3: HIST RR statistics ------------------------------------

func BenchmarkFig3_HISTStats(b *testing.B) {
	g := benchGraph(b, 5000, 8, "wcvariant")
	b.ReportAllocs()
	var last *subsim.Result
	for i := 0; i < b.N; i++ {
		res, err := subsim.Maximize(g, subsim.AlgHIST, subsim.Options{
			K: 100, Eps: 0.2, Seed: uint64(i + 1), Workers: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.SentinelRR), "sentinelRR")
	b.ReportMetric(float64(last.SentinelSize), "sentinels")
	b.ReportMetric(last.RRStats.AvgSize(), "avg|R|")
}

// --- Figure 4: high influence, varying k -----------------------------

func BenchmarkFig4_OPIMC(b *testing.B) {
	benchAlgorithm(b, benchGraph(b, 5000, 8, "wcvariant"), subsim.AlgOPIMC, 50)
}
func BenchmarkFig4_HIST(b *testing.B) {
	benchAlgorithm(b, benchGraph(b, 5000, 8, "wcvariant"), subsim.AlgHIST, 50)
}
func BenchmarkFig4_HISTSubsim(b *testing.B) {
	benchAlgorithm(b, benchGraph(b, 5000, 8, "wcvariant"), subsim.AlgHISTSubsim, 50)
}

// --- Figure 5: influence estimation ----------------------------------

func BenchmarkFig5_ForwardMC(b *testing.B) {
	g := benchGraph(b, 5000, 8, "wcvariant")
	res, err := subsim.Maximize(g, subsim.AlgHISTSubsim, subsim.Options{
		K: 50, Eps: 0.2, Seed: 1, Workers: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		subsim.EstimateInfluence(g, res.Seeds, 1000, subsim.IC, uint64(i))
	}
}

// --- Figure 6: WC variant (already covered by Fig4 at θ fixed);
// the sweep lives in imbench. Here: the two θ extremes. ---------------

func BenchmarkFig6_ThetaLow_HISTSubsim(b *testing.B) {
	g := benchGraph(b, 5000, 8, "wc") // θ=1
	benchAlgorithm(b, g, subsim.AlgHISTSubsim, 50)
}
func BenchmarkFig6_ThetaHigh_HISTSubsim(b *testing.B) {
	benchAlgorithm(b, benchGraph(b, 5000, 8, "wcvariant"), subsim.AlgHISTSubsim, 50)
}

// --- Figure 7: Uniform IC --------------------------------------------

func BenchmarkFig7_Uniform_OPIMC(b *testing.B) {
	benchAlgorithm(b, benchGraph(b, 5000, 8, "uniform"), subsim.AlgOPIMC, 50)
}
func BenchmarkFig7_Uniform_HISTSubsim(b *testing.B) {
	benchAlgorithm(b, benchGraph(b, 5000, 8, "uniform"), subsim.AlgHISTSubsim, 50)
}

// --- Ablations --------------------------------------------------------

// BenchmarkAblation_SubsetEqual compares the naive Bernoulli loop with
// geometric skip sampling on an equal-probability vector — the core
// Algorithm 3 trade (one log-based draw per sampled element vs one cheap
// coin per element).
func BenchmarkAblation_SubsetEqual(b *testing.B) {
	const h = 1024
	for _, p := range []float64{0.001, 0.01, 0.1} {
		probs := make([]float64, h)
		for i := range probs {
			probs[i] = p
		}
		logP := math.Log1p(-p)
		b.Run(fmt.Sprintf("naive/p=%g", p), func(b *testing.B) {
			r := rng.New(1)
			cnt := 0
			for i := 0; i < b.N; i++ {
				sampling.Naive(r, probs, func(int) bool { cnt++; return true })
			}
		})
		b.Run(fmt.Sprintf("skip/p=%g", p), func(b *testing.B) {
			r := rng.New(1)
			cnt := 0
			for i := 0; i < b.N; i++ {
				sampling.EqualSkip(r, h, p, logP, func(int) bool { cnt++; return true })
			}
		})
	}
}

// BenchmarkAblation_SubsetGeneral compares the general-IC kernels on a
// skewed (normalised) probability vector.
func BenchmarkAblation_SubsetGeneral(b *testing.B) {
	const h = 1024
	r0 := rng.New(9)
	probs := make([]float64, h)
	var sum float64
	for i := range probs {
		probs[i] = r0.Exponential(1)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	sorted := append([]float64(nil), probs...)
	for i := 1; i < len(sorted); i++ { // insertion sort descending
		for j := i; j > 0 && sorted[j] > sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	bb := sampling.NewBucketed(probs)
	bj := sampling.NewBucketedJump(probs)
	kernels := []struct {
		name string
		f    func(r *rng.Source, y func(int) bool)
	}{
		{"naive", func(r *rng.Source, y func(int) bool) { sampling.Naive(r, probs, y) }},
		{"sorted", func(r *rng.Source, y func(int) bool) { sampling.SortedSkip(r, sorted, y) }},
		{"bucketed", bb.Sample},
		{"bucketed-jump", bj.Sample},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			r := rng.New(1)
			cnt := 0
			for i := 0; i < b.N; i++ {
				k.f(r, func(int) bool { cnt++; return true })
			}
		})
	}
}

// BenchmarkAblation_Geometric measures the primitive skip draw with and
// without the precomputed log denominator.
func BenchmarkAblation_Geometric(b *testing.B) {
	logP := math.Log1p(-0.01)
	b.Run("recompute", func(b *testing.B) {
		r := rng.New(1)
		var s int64
		for i := 0; i < b.N; i++ {
			s += r.Geometric(0.01)
		}
	})
	b.Run("precomputed", func(b *testing.B) {
		r := rng.New(1)
		var s int64
		for i := 0; i < b.N; i++ {
			s += r.GeometricFromLog(logP)
		}
	})
}

// BenchmarkAblation_LazyGreedy measures seed selection over a realistic
// RR collection (the coverage index dominates IM node-selection time).
func BenchmarkAblation_LazyGreedy(b *testing.B) {
	g := benchGraph(b, 5000, 8, "wc")
	gen := subsim.NewRRGenerator(g, subsim.GenSubsim)
	sets := subsim.SampleRRSets(gen, 20000, 7)
	outDeg := make([]int32, g.N())
	for v := range outDeg {
		outDeg[v] = int32(g.OutDegree(int32(v)))
	}
	idx := coverage.NewIndex(g.N(), outDeg, 1)
	for _, set := range sets {
		idx.Add(set)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.SelectSeeds(coverage.GreedyOptions{K: 50, Revised: true})
	}
}
