package im

import (
	"testing"

	"subsim/internal/coverage"
	"subsim/internal/graph"
	"subsim/internal/rrset"
)

// TestShardedPipelineEquivalence extends the pipeline property test to
// the sharded fill: for every generator kind and worker count,
// Batcher.Fill into an index with one shard per worker (one lane per
// shard generating in place) must yield the same set count,
// identical merged generator stats, and byte-identical seeds and
// certified Λᵘ as the one-worker, one-shard reference. A shard count
// that differs from the worker count (lanes walking several shards)
// must change nothing either.
func TestShardedPipelineEquivalence(t *testing.T) {
	const (
		count = 1500
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
			refStats := refB.Stats()
			refSel := refIdx.SelectSeeds(coverage.GreedyOptions{K: k})

			check := func(t *testing.T, b *Batcher, sh *coverage.Index, workers int) {
				t.Helper()
				if hits := b.Fill(sh, count, nil); hits != 0 {
					t.Fatalf("workers=%d: unexpected sentinel hits %d", workers, hits)
				}
				if sh.NumSets() != refIdx.NumSets() {
					t.Fatalf("workers=%d: %d sets, want %d", workers, sh.NumSets(), refIdx.NumSets())
				}
				if s := b.Stats(); s != refStats {
					t.Fatalf("workers=%d: stats %+v, want %+v", workers, s, refStats)
				}
				sel := sh.SelectSeeds(coverage.GreedyOptions{K: k})
				if len(sel.Seeds) != len(refSel.Seeds) {
					t.Fatalf("workers=%d: %d seeds, want %d", workers, len(sel.Seeds), len(refSel.Seeds))
				}
				for i := range sel.Seeds {
					if sel.Seeds[i] != refSel.Seeds[i] || sel.Coverage[i] != refSel.Coverage[i] {
						t.Fatalf("workers=%d: pick %d = (%d,%d), want (%d,%d)", workers, i,
							sel.Seeds[i], sel.Coverage[i], refSel.Seeds[i], refSel.Coverage[i])
					}
				}
				if sel.CoverageUpper != refSel.CoverageUpper {
					t.Fatalf("workers=%d: Λᵘ %d, want %d", workers, sel.CoverageUpper, refSel.CoverageUpper)
				}
			}

			for _, workers := range []int{1, 2, 8} {
				// One shard per worker: one lane per shard.
				b := NewBatcher(c.gen(), seed, workers)
				sh := coverage.NewIndex(n, nil, workers)
				sh.SetWorkers(workers)
				check(t, b, sh, workers)
			}
			// Five shards over two lanes: still identical (any partition
			// sums to the same coverage).
			b := NewBatcher(c.gen(), seed, 2)
			sh := coverage.NewIndex(n, nil, 5)
			sh.SetWorkers(2)
			check(t, b, sh, 2)
		})
	}
}

// TestShardedCertifiedBoundsWorkerIndependent is the algorithm-level pin
// of the shard-count invariant: a full OPIM-C run (doubling loop, Eq. 1/2
// certification) with one shard per worker must be bit-identical to the
// one-worker, one-shard run — seeds, influence, both certified
// bounds, and merged RR stats — at every worker count.
func TestShardedCertifiedBoundsWorkerIndependent(t *testing.T) {
	g := estimatorTestGraph(t)
	ref := runWith(t, g, BoundIMM, 1)
	if ref.LowerBound <= 0 || ref.UpperBound <= 0 {
		t.Fatalf("reference run certified no bounds: %+v", ref)
	}
	for _, workers := range []int{1, 2, 8} {
		res := runWith(t, g, BoundIMM, workers)
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
			t.Fatalf("workers=%d: results diverged from the one-worker run: %+v vs %+v", workers, res, ref)
		}
		if res.RRStats != ref.RRStats {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, res.RRStats, ref.RRStats)
		}
	}
}

// TestShardedSentinelHits drives the in-place DropLast discard of the
// multi-shard fill against the one-shard reference: same sentinel
// set, same hit counts, same surviving collection, same selection —
// with the sentinel hits also visible in the generator stats.
func TestShardedSentinelHits(t *testing.T) {
	const (
		count = 2000
		k     = 6
		seed  = 19
	)
	g := estimatorTestGraph(t)
	sentinel := make([]bool, g.N())
	// Hub nodes make good sentinels: plenty of traversals hit them.
	for v := 0; v < 20; v++ {
		sentinel[v] = true
	}

	refB := NewBatcher(rrset.NewSubsim(g), seed, 1)
	refIdx := coverage.NewIndex(g.N(), nil, 1)
	refHits := refB.Fill(refIdx, count, sentinel)
	if refHits == 0 {
		t.Fatal("reference run hit no sentinels; test graph/sentinel choice is broken")
	}
	refSel := refIdx.SelectSeeds(coverage.GreedyOptions{K: k})

	for _, workers := range []int{1, 2, 8} {
		b := NewBatcher(rrset.NewSubsim(g), seed, workers)
		sh := coverage.NewIndex(g.N(), nil, workers)
		sh.SetWorkers(workers)
		hits := b.Fill(sh, count, sentinel)
		if hits != refHits {
			t.Fatalf("workers=%d: %d sentinel hits, want %d", workers, hits, refHits)
		}
		if sh.NumSets() != refIdx.NumSets() {
			t.Fatalf("workers=%d: %d surviving sets, want %d", workers, sh.NumSets(), refIdx.NumSets())
		}
		if s := b.Stats(); s.SentinelHits != refHits {
			t.Fatalf("workers=%d: stats count %d sentinel hits, want %d", workers, s.SentinelHits, refHits)
		}
		sel := sh.SelectSeeds(coverage.GreedyOptions{K: k})
		for i := range refSel.Seeds {
			if sel.Seeds[i] != refSel.Seeds[i] {
				t.Fatalf("workers=%d: seed %d is %d, want %d", workers, i, sel.Seeds[i], refSel.Seeds[i])
			}
		}
		if sel.CoverageUpper != refSel.CoverageUpper {
			t.Fatalf("workers=%d: Λᵘ %d, want %d", workers, sel.CoverageUpper, refSel.CoverageUpper)
		}
	}
}

// TestShardedFillAmortizedAllocs is the allocation gate of the whole
// round: at steady state the in-place generate→index→select round must
// average well under one allocation per RR set.
func TestShardedFillAmortizedAllocs(t *testing.T) {
	g := allocGraph(t)
	b := NewBatcher(rrset.NewSubsim(g), 42, 1)
	sh := coverage.NewIndex(g.N(), nil, 1)
	// Warm up the shard arena, CSR double buffers, and selection scratch.
	b.Fill(sh, 600, nil)
	sh.Degree(0)
	sh.SelectSeeds(coverage.GreedyOptions{K: 10})
	b.Fill(sh, 600, nil)
	sh.Degree(0)
	allocs := testing.AllocsPerRun(20, func() {
		b.Fill(sh, 200, nil)
		sh.Degree(0) // force the per-shard delta CSR rebuild
	})
	const maxAllocs = 25 // 200 sets/run → ≤0.125 allocs/set
	if allocs > maxAllocs {
		t.Errorf("Fill(200)+rebuild allocated %.1f objects/run, want <= %d", allocs, maxAllocs)
	}
	selAllocs := testing.AllocsPerRun(20, func() {
		sh.SelectSeeds(coverage.GreedyOptions{K: 10})
	})
	if selAllocs > 3 { // Seeds + Coverage are the only per-call allocations
		t.Errorf("SelectSeeds allocated %.1f objects/run warm, want <= 3", selAllocs)
	}
}

// TestShardedConcurrentFill exercises the multi-shard fill path
// (one goroutine per shard writing its own arena) repeatedly so `go test
// -race` covers the handoff, and re-checks set accounting.
func TestShardedConcurrentFill(t *testing.T) {
	g := allocGraph(t)
	b := NewBatcher(rrset.NewSubsim(g), 7, 8)
	sh := coverage.NewIndex(g.N(), nil, 8)
	sh.SetWorkers(8)
	for round := 0; round < 4; round++ {
		b.Fill(sh, 1000, nil)
		if got := sh.NumSets(); got != 1000*(round+1) {
			t.Fatalf("round %d: %d sets, want %d", round, got, 1000*(round+1))
		}
		// Query between rounds so rebuilds interleave with fills.
		sh.Degree(int32(round))
	}
	if s := b.Stats(); s.Sets != 4000 {
		t.Fatalf("merged stats count %d sets, want 4000", s.Sets)
	}
}

// TestBatcherReserveColdStart is the white-box pin of the cold-start
// reservation: on a batcher whose generators have produced nothing, the
// first reserve must pre-size the arena from the graph's average degree
// (coldNodes), not from the zero observed average — reserving zero nodes
// would eat log2(batch) reallocations on the very first fill.
func TestBatcherReserveColdStart(t *testing.T) {
	g := estimatorTestGraph(t) // PA 1000x5: avg degree ~5 → coldNodes 6
	b := NewBatcher(rrset.NewSubsim(g), 1, 2)
	if b.coldNodes < 2 || b.coldNodes > 64 {
		t.Fatalf("coldNodes = %d outside its [2,64] clamp", b.coldNodes)
	}
	if want := int(g.AvgDegree()) + 1; b.coldNodes != want {
		t.Fatalf("coldNodes = %d, want AvgDegree+1 = %d", b.coldNodes, want)
	}

	const cnt = 100
	a := rrset.NewArena(0, 0)
	b.reserve(a, 0, cnt, nil)
	if got := cap(a.Data()); got < cnt*b.coldNodes {
		t.Errorf("cold reserve gave %d node capacity, want >= cnt*coldNodes = %d", got, cnt*b.coldNodes)
	}
	if got := cap(a.Ends()); got < cnt {
		t.Errorf("cold reserve gave %d set slots, want >= %d", got, cnt)
	}

	// Warm path: after real sets exist the reservation follows the
	// observed average (1.25× headroom), not coldNodes.
	b.Visit(200, nil, func([]int32) bool { return true })
	s := b.workers[0].gen.Stats()
	if s.Sets == 0 {
		t.Fatal("warmup generated nothing through worker 0")
	}
	w := rrset.NewArena(0, 0)
	b.reserve(w, 0, cnt, nil)
	if want := int(s.AvgSize()*float64(cnt)*1.25) + cnt; cap(w.Data()) < want {
		t.Errorf("warm reserve gave %d node capacity, want >= %d (avg-size driven)", cap(w.Data()), want)
	}

	// Graph-less generators (nil Graph) still get the floor of 2.
	if got := NewBatcher(nilGraphGen{}, 1, 1).coldNodes; got != 2 {
		t.Errorf("nil-graph coldNodes = %d, want 2", got)
	}
}

// nilGraphGen is a Generator stub with no graph, for the cold-start
// fallback check; only Graph(), Stats() and Clone() are ever called on
// it (the embedded nil Generator panics on anything else).
type nilGraphGen struct{ rrset.Generator }

func (nilGraphGen) Graph() *graph.Graph    { return nil }
func (nilGraphGen) Stats() rrset.Stats     { return rrset.Stats{} }
func (nilGraphGen) Clone() rrset.Generator { return nilGraphGen{} }
