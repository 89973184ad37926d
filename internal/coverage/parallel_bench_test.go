package coverage

import (
	"testing"

	"subsim/internal/rng"
)

// benchSets draws a workload shaped like the 2000-set Fill batch of the
// im benchmarks: 2000 sets over 5000 nodes, sizes in [1, 30].
func benchSets(count int) ([][]int32, int) {
	const n = 5000
	r := rng.New(17)
	return randomSets(r, n, count, 30), n
}

// benchIndexBuild isolates the delta CSR inverted-index rebuild: the
// shard arenas are filled once, then each iteration resets every shard's
// index state (heads zeroed, delta cursor rewound) and rebuilds the full
// CSRs through ensureIndexed, reusing the steady-state double buffers.
// The index has one shard per worker, as im.NewEstimator builds it; the
// W variants give identical query answers, so their ratio is the build
// speedup.
func benchIndexBuild(b *testing.B, workers int) {
	b.Helper()
	sets, n := benchSets(2000)
	x := NewIndex(n, nil, workers)
	x.SetWorkers(workers)
	for _, s := range sets {
		x.Add(s)
	}
	x.ensureIndexed() // warm: grows all scratch to steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for s := range x.shards {
			sh := &x.shards[s]
			sh.indexed = 0
			for j := range sh.heads {
				sh.heads[j] = 0
			}
		}
		b.StartTimer()
		x.ensureIndexed()
	}
	b.ReportMetric(float64(len(sets)), "sets/op")
}

func BenchmarkIndexBuild_W1(b *testing.B) { benchIndexBuild(b, 1) }
func BenchmarkIndexBuild_W4(b *testing.B) { benchIndexBuild(b, 4) }
func BenchmarkIndexBuild_W8(b *testing.B) { benchIndexBuild(b, 8) }

// benchSelectGains isolates the first CELF round: SelectSeeds with K=1
// on a warm index is dominated by the initial-gain fill over all n nodes
// plus the heapify, the part the parallel gains pass partitions.
func benchSelectGains(b *testing.B, workers int) {
	b.Helper()
	sets, n := benchSets(20000)
	x := NewIndex(n, nil, workers)
	x.SetWorkers(workers)
	for _, s := range sets {
		x.Add(s)
	}
	x.SelectSeeds(GreedyOptions{K: 1}) // warm index + selection scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.SelectSeeds(GreedyOptions{K: 1})
	}
}

func BenchmarkSelectGains_W1(b *testing.B) { benchSelectGains(b, 1) }
func BenchmarkSelectGains_W4(b *testing.B) { benchSelectGains(b, 4) }
func BenchmarkSelectGains_W8(b *testing.B) { benchSelectGains(b, 8) }
