package im

import (
	"testing"

	"subsim/internal/coverage"
	"subsim/internal/graph"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// benchGraph builds the ER benchmark graph used by the allocation and
// throughput benchmarks of the generate→index hot path.
func benchGraph(b *testing.B, n int, m int64) *graph.Graph {
	b.Helper()
	g, err := graph.GenErdosRenyi(n, m, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	g.AssignWC()
	return g
}

// benchBAGraph builds the preferential-attachment (BA) benchmark graph.
func benchBAGraph(b *testing.B, n, deg int) *graph.Graph {
	b.Helper()
	g, err := graph.GenPreferentialAttachment(n, deg, false, rng.New(11))
	if err != nil {
		b.Fatal(err)
	}
	g.AssignWC()
	return g
}

// benchFill measures the full generate→index path: sampling setsPer RR
// sets through a Batcher straight into the shard arenas of a
// coverage.Index (one shard per worker, as NewEstimator builds it), then
// forcing the per-shard inverted index builds with a degree probe. This
// is the hot loop of every doubling round in IMM/OPIM-C/SSA/TIM+/HIST.
func benchFill(b *testing.B, gen rrset.Generator, workers, setsPer int) {
	b.Helper()
	n := gen.Graph().N()
	batch := NewBatcher(gen, 42, workers)
	// Warm the generators so steady-state costs are measured.
	idx := coverage.NewIndex(n, nil, workers)
	idx.SetWorkers(workers)
	batch.Fill(idx, setsPer, nil)
	idx.Degree(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := coverage.NewIndex(n, nil, workers)
		idx.SetWorkers(workers)
		batch.Fill(idx, setsPer, nil)
		idx.Degree(0) // force the inverted index build
	}
	b.ReportMetric(float64(setsPer), "sets/op")
}

func BenchmarkFillIndex_Vanilla_W1(b *testing.B) {
	g := benchGraph(b, 5000, 40000)
	benchFill(b, rrset.NewVanilla(g), 1, 2000)
}

func BenchmarkFillIndex_Subsim_W1(b *testing.B) {
	g := benchGraph(b, 5000, 40000)
	benchFill(b, rrset.NewSubsim(g), 1, 2000)
}

func BenchmarkFillIndex_Subsim_W4(b *testing.B) {
	g := benchGraph(b, 5000, 40000)
	benchFill(b, rrset.NewSubsim(g), 4, 2000)
}

func BenchmarkFillIndex_Subsim_W8(b *testing.B) {
	g := benchGraph(b, 5000, 40000)
	benchFill(b, rrset.NewSubsim(g), 8, 2000)
}

func BenchmarkFillIndex_BA_Subsim_W1(b *testing.B) {
	g := benchBAGraph(b, 5000, 8)
	benchFill(b, rrset.NewSubsim(g), 1, 2000)
}

func BenchmarkFillIndex_BA_Subsim_W8(b *testing.B) {
	g := benchBAGraph(b, 5000, 8)
	benchFill(b, rrset.NewSubsim(g), 8, 2000)
}

// BenchmarkGenerateSingle measures a single-set Generate through the
// caller-owned compatibility path (the ISSUE acceptance gate: no ns/op
// regression for single-set Generate).
func BenchmarkGenerateSingle_Subsim(b *testing.B) {
	g := benchGraph(b, 5000, 40000)
	gen := rrset.NewSubsim(g)
	r := rng.New(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rrset.GenerateRandom(gen, r, nil)
	}
}

// BenchmarkSelectSeeds measures greedy CELF selection over a realistic
// RR collection read through the coverage index.
func BenchmarkSelectSeeds_Subsim(b *testing.B) {
	g := benchGraph(b, 5000, 40000)
	batch := NewBatcher(rrset.NewSubsim(g), 42, 1)
	idx := coverage.NewIndex(g.N(), nil, 1)
	batch.Fill(idx, 20000, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = idx.SelectSeeds(coverage.GreedyOptions{K: 50})
	}
}

// benchSelectWorkers measures CELF selection on an index with one shard
// per worker: every round's stale-top marginal recompute and
// covered-bit commit fans out across shards, so this is the benchmark
// where rounds beyond the first scale.
func benchSelectWorkers(b *testing.B, workers int) {
	b.Helper()
	g := benchGraph(b, 5000, 40000)
	batch := NewBatcher(rrset.NewSubsim(g), 42, workers)
	idx := coverage.NewIndex(g.N(), nil, workers)
	idx.SetWorkers(workers)
	batch.Fill(idx, 20000, nil)
	idx.Degree(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = idx.SelectSeeds(coverage.GreedyOptions{K: 50})
	}
}

func BenchmarkSelectSeeds_W1(b *testing.B) { benchSelectWorkers(b, 1) }
func BenchmarkSelectSeeds_W4(b *testing.B) { benchSelectWorkers(b, 4) }
func BenchmarkSelectSeeds_W8(b *testing.B) { benchSelectWorkers(b, 8) }

// BenchmarkSelectSeeds_K2000 measures a long selection on a
// preferential-attachment index of tiny SUBSIM sets at one worker: with
// k=2000 the Λᵘ prefix bound is evaluated at 12 prefixes with L=2000,
// the selection-heavy shape of a large-k SUBSIM solve.
func BenchmarkSelectSeeds_K2000(b *testing.B) {
	g := benchBAGraph(b, 20000, 10)
	batch := NewBatcher(rrset.NewSubsim(g), 42, 1)
	idx := coverage.NewIndex(g.N(), nil, 1)
	batch.Fill(idx, 8000, nil)
	idx.Degree(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = idx.SelectSeeds(coverage.GreedyOptions{K: 2000})
	}
}

// BenchmarkOPIMC_E2E measures an end-to-end OPIM-C run with SUBSIM
// generation on the ER benchmark graph.
func BenchmarkOPIMC_E2E_Subsim(b *testing.B) {
	g := benchGraph(b, 5000, 40000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen := rrset.NewSubsim(g)
		if _, err := OPIMC(gen, Options{K: 20, Eps: 0.3, Seed: 9, Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
