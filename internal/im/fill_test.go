package im

import (
	"slices"
	"testing"

	"subsim/internal/coverage"
	"subsim/internal/graph"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// TestFillSentinelWorkerEquality pins the parallel fill under sentinel
// filtering, the branch where per-shard kept counts really differ: for
// every worker count (one shard per worker) the index must hold the same
// kept sets, report the same hit count, and select the same seeds.
func TestFillSentinelWorkerEquality(t *testing.T) {
	g, err := graph.GenErdosRenyi(500, 4000, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()
	sentinel := make([]bool, g.N())
	for v := 0; v < g.N(); v += 3 {
		sentinel[v] = true
	}
	const count = 1200

	ref := NewBatcher(rrset.NewSubsim(g), 13, 1)
	refIdx := coverage.NewIndex(g.N(), nil, 1)
	refHits := ref.Fill(refIdx, count, sentinel)
	refSel := refIdx.SelectSeeds(coverage.GreedyOptions{K: 5, Exclude: sentinel})

	for _, workers := range []int{2, 8} {
		b := NewBatcher(rrset.NewSubsim(g), 13, workers)
		idx := coverage.NewIndex(g.N(), nil, workers)
		// Two rounds so the second fill appends behind existing shard
		// content.
		hits := b.Fill(idx, count/2, sentinel)
		hits += b.Fill(idx, count-count/2, sentinel)
		if hits != refHits {
			t.Fatalf("workers=%d: %d sentinel hits, want %d", workers, hits, refHits)
		}
		if idx.NumSets() != refIdx.NumSets() {
			t.Fatalf("workers=%d: %d kept sets, want %d", workers, idx.NumSets(), refIdx.NumSets())
		}
		// Within a fill the sets come back shard by shard, so compare
		// the kept collections as sorted lists of sets.
		want, got := sortedSets(refIdx), sortedSets(idx)
		for i := range want {
			if !slices.Equal(want[i], got[i]) {
				t.Fatalf("workers=%d: kept set %d is %v, want %v", workers, i, got[i], want[i])
			}
		}
		sel := idx.SelectSeeds(coverage.GreedyOptions{K: 5, Exclude: sentinel})
		for i := range refSel.Seeds {
			if sel.Seeds[i] != refSel.Seeds[i] {
				t.Fatalf("workers=%d: seed %d is %d, want %d", workers, i, sel.Seeds[i], refSel.Seeds[i])
			}
		}
		if sel.CoverageUpper != refSel.CoverageUpper {
			t.Fatalf("workers=%d: upper %d, want %d", workers, sel.CoverageUpper, refSel.CoverageUpper)
		}
	}
}

// TestReserveColdStart pins the cold-start fix: the very first reserve,
// before any set has been generated, must size the arena's node buffer
// from the graph's average degree instead of reserving zero nodes.
func TestReserveColdStart(t *testing.T) {
	g := allocGraph(t) // 2000 nodes, 16000 edges → avg degree 8
	b := NewBatcher(rrset.NewSubsim(g), 1, 1)
	if b.coldNodes < 2 || b.coldNodes > 64 {
		t.Fatalf("coldNodes = %d outside [2,64]", b.coldNodes)
	}
	if want := int(g.AvgDegree()) + 1; b.coldNodes != want {
		t.Fatalf("coldNodes = %d, want avg degree estimate %d", b.coldNodes, want)
	}
	a := rrset.NewArena(0, 0)
	b.reserve(a, 0, 100, nil)
	if got := cap(a.Data()); got < 100*b.coldNodes {
		t.Fatalf("cold reserve capacity %d nodes, want >= %d", got, 100*b.coldNodes)
	}
	// Warm reserve switches to the observed average and must dominate
	// the batch size.
	b.Fill(coverage.NewIndex(g.N(), nil, 1), 50, nil)
	a2 := rrset.NewArena(0, 0)
	b.reserve(a2, 0, 100, nil)
	if got := cap(a2.Data()); got < 100 {
		t.Fatalf("warm reserve capacity %d nodes", got)
	}
}

// TestFillIndexSelectRoundsAllocs extends the amortised-allocation bound
// to the full doubling-round shape — repeated Fill→SelectSeeds cycles on
// the same index — which exercises the in-place fill, the delta CSR
// rebuild, AND the selection scratch reuse together. Steady-state cost
// per round must stay at the few unavoidable allocations (Seeds/Coverage
// slices plus amortised geometric growth).
func TestFillIndexSelectRoundsAllocs(t *testing.T) {
	g := allocGraph(t)
	b := NewBatcher(rrset.NewSubsim(g), 42, 1)
	idx := coverage.NewIndex(g.N(), nil, 1)
	// Warm: enough rounds that the shard arena, the CSR double buffers,
	// the covered stamps and the selection scratch all hit steady
	// capacity.
	for i := 0; i < 4; i++ {
		b.Fill(idx, 300, nil)
		idx.SelectSeeds(coverage.GreedyOptions{K: 10})
	}
	allocs := testing.AllocsPerRun(15, func() {
		b.Fill(idx, 200, nil)
		idx.SelectSeeds(coverage.GreedyOptions{K: 10})
	})
	// 200 sets/round: Seeds+Coverage (2) plus rare geometric growth.
	const maxAllocs = 25
	if allocs > maxAllocs {
		t.Errorf("Fill(200)+SelectSeeds allocated %.1f objects/round, want <= %d", allocs, maxAllocs)
	}
}

// TestFillRaceParallel drives the multi-lane fill into eight shards
// repeatedly, interleaved with selections, so the race detector sees
// the goroutine handoff, including the sentinel drop branch.
func TestFillRaceParallel(t *testing.T) {
	g := allocGraph(t)
	sentinel := make([]bool, g.N())
	for v := 0; v < g.N(); v += 7 {
		sentinel[v] = true
	}
	b := NewBatcher(rrset.NewSubsim(g), 3, 8)
	idx := coverage.NewIndex(g.N(), nil, 8)
	idx.SetWorkers(8)
	var total int64
	for round := 0; round < 4; round++ {
		total += b.Fill(idx, 800, sentinel)
		idx.SelectSeeds(coverage.GreedyOptions{K: 4, Exclude: sentinel})
	}
	if total+int64(idx.NumSets()) != 3200 {
		t.Fatalf("hits %d + kept %d != 3200", total, idx.NumSets())
	}
}

// sortedSets copies an index's sets and sorts them lexicographically.
func sortedSets(idx *coverage.Index) [][]int32 {
	out := make([][]int32, idx.NumSets())
	for i := range out {
		out[i] = slices.Clone(idx.Set(i))
	}
	slices.SortFunc(out, slices.Compare)
	return out
}
