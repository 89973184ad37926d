package im

import (
	"testing"

	"subsim/internal/coverage"
	"subsim/internal/graph"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// allocGraph is a mid-size WC graph shared by the allocation-regression
// tests; big enough that RR sets have non-trivial size, small enough to
// keep the tests fast.
func allocGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.GenErdosRenyi(2000, 16000, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()
	return g
}

// TestVisitSteadyStateAllocFree pins the tentpole invariant: once the
// per-worker arena and generator scratch have grown to steady-state
// capacity, generating RR sets through the batcher performs ZERO heap
// allocations per set. AllocsPerRun forces GOMAXPROCS=1, so this covers
// the single-worker fill path.
func TestVisitSteadyStateAllocFree(t *testing.T) {
	g := allocGraph(t)
	for _, mk := range []struct {
		name string
		gen  rrset.Generator
	}{
		{"vanilla", rrset.NewVanilla(g)},
		{"subsim", rrset.NewSubsim(g)},
		{"bucketed", rrset.NewSubsimBucketed(g, true)},
	} {
		t.Run(mk.name, func(t *testing.T) {
			b := NewBatcher(mk.gen, 42, 1)
			var sink int
			visit := func(set []int32) bool { sink += len(set); return true }
			// Warm up: grow arena + scratch to steady state.
			for i := 0; i < 3; i++ {
				b.Visit(200, nil, visit)
			}
			allocs := testing.AllocsPerRun(20, func() {
				b.Visit(200, nil, visit)
			})
			if allocs > 0 {
				t.Errorf("Visit(200) allocated %.1f objects/run in steady state, want 0", allocs)
			}
			if sink == 0 {
				t.Fatal("no nodes visited")
			}
		})
	}
}

// TestFillIndexAmortizedAllocs bounds the amortised allocation cost of
// the full generate→index pipeline: filling 200 sets into a growing
// index plus one delta rebuild must average well under one allocation
// per RR set. (The only allocations left are the geometric shard-arena
// and CSR growth, amortised across hundreds of sets.)
func TestFillIndexAmortizedAllocs(t *testing.T) {
	g := allocGraph(t)
	b := NewBatcher(rrset.NewSubsim(g), 42, 1)
	idx := coverage.NewIndex(g.N(), nil, 1)
	// Warm up the generator scratch and the shard arena.
	b.Fill(idx, 600, nil)
	idx.Degree(0)
	allocs := testing.AllocsPerRun(20, func() {
		b.Fill(idx, 200, nil)
		idx.Degree(0) // force the delta CSR rebuild
	})
	const maxAllocs = 25 // 200 sets/run → ≤0.125 allocs/set
	if allocs > maxAllocs {
		t.Errorf("Fill(200)+rebuild allocated %.1f objects/run, want <= %d", allocs, maxAllocs)
	}
}

// TestGenerateIntoAllocFree checks the generator-level contract directly:
// GenerateInto appends into a caller arena without allocating once the
// arena and traversal scratch have reached capacity.
func TestGenerateIntoAllocFree(t *testing.T) {
	g := allocGraph(t)
	gen := rrset.NewSubsim(g)
	a := rrset.NewArena(0, 0)
	r := rng.New(9)
	for i := 0; i < 3; i++ {
		a.Reset()
		for j := 0; j < 200; j++ {
			rrset.GenerateRandomInto(gen, a, r, nil)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		a.Reset()
		for j := 0; j < 200; j++ {
			rrset.GenerateRandomInto(gen, a, r, nil)
		}
	})
	if allocs > 0 {
		t.Errorf("GenerateInto allocated %.1f objects per 200 sets in steady state, want 0", allocs)
	}
}

// TestConcurrentArenaSplicing exercises the parallel Visit path (one
// arena per worker, visited in global-index order) with enough sets to
// guarantee the multi-worker branch, repeatedly, so `go test -race`
// covers the worker-arena handoff. It also re-checks that Visit sees
// every generated set exactly once.
func TestConcurrentArenaSplicing(t *testing.T) {
	g := allocGraph(t)
	b := NewBatcher(rrset.NewSubsim(g), 7, 8)
	for round := 0; round < 4; round++ {
		seen := 0
		nodes := 0
		b.Visit(1000, nil, func(set []int32) bool {
			seen++
			nodes += len(set)
			return true
		})
		if seen != 1000 {
			t.Fatalf("round %d: visited %d sets, want 1000", round, seen)
		}
		if nodes == 0 {
			t.Fatalf("round %d: no nodes generated", round)
		}
	}
	s := b.Stats()
	if s.Sets != 4000 {
		t.Fatalf("merged stats count %d sets, want 4000", s.Sets)
	}
}
