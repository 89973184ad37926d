package coverage

import (
	"math"
	"sync/atomic"
	"testing"

	"subsim/internal/obs/timeline"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// forceParallelAll drops every size threshold the index gates its
// fan-outs on — build, initial gains, AND the per-round reduces — so
// tiny test inputs exercise the parallel paths.
func forceParallelAll(t *testing.T) {
	t.Helper()
	forceParallel(t)
	reduceMin := parallelReduceMinPostings
	parallelReduceMinPostings = 0
	t.Cleanup(func() { parallelReduceMinPostings = reduceMin })
}

func TestShardOf(t *testing.T) {
	for _, tc := range []struct {
		idx    int64
		shards int
		want   int
	}{
		{0, 1, 0}, {5, 1, 0}, {0, 4, 0}, {1, 4, 1}, {4, 4, 0}, {7, 3, 1},
		{1 << 40, 8, 0}, {(1 << 40) + 3, 8, 3},
	} {
		if got := ShardOf(tc.idx, tc.shards); got != tc.want {
			t.Errorf("ShardOf(%d, %d) = %d, want %d", tc.idx, tc.shards, got, tc.want)
		}
	}
}

func TestReducePartials(t *testing.T) {
	for _, in := range [][]int64{
		nil, {}, {7}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4, 5, 6, 7},
		{-3, 10, -4, 0, 2},
	} {
		var want int64
		for _, v := range in {
			want += v
		}
		buf := append([]int64(nil), in...)
		if got := reducePartials(buf); got != want {
			t.Errorf("reducePartials(%v) = %d, want %d", in, got, want)
		}
	}
}

// TestShardedMatchesIndex is the core exactness pin: an index over any
// shard count, at any worker bound, with and without the parallel paths
// forced, must answer Degree, CoverageOf, and SelectSeeds
// byte-identically to the serial one-shard index.
func TestShardedMatchesIndex(t *testing.T) {
	const n = 83
	r := rng.New(11)
	sets := randomSets(r, n, 400, 7)
	outDeg := make([]int32, n)
	for v := range outDeg {
		outDeg[v] = int32(r.Intn(40))
	}
	exclude := make([]bool, n)
	for v := 0; v < n; v += 7 {
		exclude[v] = true
	}
	ref := indexFromSets(n, outDeg, sets)

	run := func(t *testing.T) {
		for _, shards := range []int{1, 2, 3, 8} {
			for _, workers := range []int{1, 2, 8} {
				x := shardIndexFromSets(n, shards, outDeg, sets)
				x.SetWorkers(workers)
				if x.NumShards() != shards || x.Workers() != workers {
					t.Fatalf("shape: shards=%d workers=%d", x.NumShards(), x.Workers())
				}
				if x.NumSets() != len(sets) {
					t.Fatalf("S=%d W=%d: NumSets = %d, want %d", shards, workers, x.NumSets(), len(sets))
				}
				for v := int32(0); v < n; v++ {
					if got, want := x.Degree(v), ref.Degree(v); got != want {
						t.Fatalf("S=%d W=%d: Degree(%d) = %d, want %d", shards, workers, v, got, want)
					}
				}
				for _, seeds := range [][]int32{{0}, {1, 2, 3}, {80, 4, 80}} {
					if got, want := x.CoverageOf(seeds), ref.CoverageOf(seeds); got != want {
						t.Fatalf("S=%d W=%d: CoverageOf(%v) = %d, want %d", shards, workers, seeds, got, want)
					}
				}
				for _, opt := range []GreedyOptions{
					{K: 1},
					{K: 10},
					{K: n},
					{K: 6, Revised: true},
					{K: 5, Exclude: exclude, Base: 13, TopL: 7},
				} {
					a := ref.SelectSeeds(opt)
					b := x.SelectSeeds(opt)
					if len(a.Seeds) != len(b.Seeds) {
						t.Fatalf("S=%d W=%d opt=%+v: %d vs %d seeds", shards, workers, opt, len(b.Seeds), len(a.Seeds))
					}
					for i := range a.Seeds {
						if a.Seeds[i] != b.Seeds[i] || a.Coverage[i] != b.Coverage[i] {
							t.Fatalf("S=%d W=%d opt=%+v: pick %d = (%d,%d), want (%d,%d)",
								shards, workers, opt, i, b.Seeds[i], b.Coverage[i], a.Seeds[i], a.Coverage[i])
						}
					}
					if a.CoverageUpper != b.CoverageUpper {
						t.Fatalf("S=%d W=%d opt=%+v: upper %d, want %d", shards, workers, opt, b.CoverageUpper, a.CoverageUpper)
					}
				}
			}
		}
	}
	t.Run("thresholds-default", run)
	t.Run("thresholds-forced", func(t *testing.T) {
		forceParallelAll(t)
		run(t)
	})
}

// TestShardedIncrementalDeltas interleaves appends and queries on a
// three-shard index so most CSR rebuilds are small per-shard deltas
// over existing postings, and cross-checks degrees against brute-force
// recounting.
func TestShardedIncrementalDeltas(t *testing.T) {
	forceParallelAll(t)
	const n = 40
	r := rng.New(99)
	x := NewIndex(n, nil, 3)
	x.SetWorkers(4)
	var all [][]int32
	for round := 0; round < 30; round++ {
		for _, set := range randomSets(r, n, 1+r.Intn(5), 5) {
			x.Add(set)
			all = append(all, set)
		}
		deg := make(map[int32]int)
		for _, set := range all {
			for _, v := range set {
				deg[v]++
			}
		}
		for v := int32(0); v < n; v++ {
			if got := x.Degree(v); got != deg[v] {
				t.Fatalf("round %d: Degree(%d) = %d, want %d", round, v, got, deg[v])
			}
		}
	}
}

// TestShardedAbsorbArenaSentinel drives the generic ingestion path: the
// flat buffer's sentinel-terminated sets are skipped and counted, and
// the kept sets land exactly where per-set Adds would have put them.
func TestShardedAbsorbArenaSentinel(t *testing.T) {
	sentinel := make([]bool, 10)
	sentinel[9] = true
	data := []int32{0, 1, 2, 9, 3, 4, 5, 9, 6}
	ends := []int64{2, 4, 5, 6, 8, 9}
	// Sets: {0,1} keep, {2,9} hit, {3} keep, {4} keep, {5,9} hit, {6} keep.
	x := NewIndex(10, nil, 3)
	if hits := x.AbsorbArena(data, ends, sentinel); hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	want := shardIndexFromSets(10, 3, nil, [][]int32{{0, 1}, {3}, {4}, {6}})
	if x.NumSets() != 4 {
		t.Fatalf("NumSets = %d, want 4", x.NumSets())
	}
	for s := 0; s < 3; s++ {
		if got, wantLen := x.ShardArena(s).Len(), want.ShardArena(s).Len(); got != wantLen {
			t.Fatalf("shard %d holds %d sets, want %d", s, got, wantLen)
		}
	}
	for v := int32(0); v < 10; v++ {
		if got, wantDeg := x.Degree(v), want.Degree(v); got != wantDeg {
			t.Fatalf("Degree(%d) = %d, want %d", v, got, wantDeg)
		}
	}
	// nil sentinel keeps everything.
	y := NewIndex(10, nil, 2)
	if hits := y.AbsorbArena(data, ends, nil); hits != 0 {
		t.Fatalf("nil sentinel hits = %d", hits)
	}
	if y.NumSets() != 6 {
		t.Fatalf("nil sentinel NumSets = %d, want 6", y.NumSets())
	}
}

// TestShardedRunWraparound pins the per-shard uint32 stamp wraparound:
// after the run counter overflows, queries must stay exact (no phantom
// coverage from stale stamps).
func TestShardedRunWraparound(t *testing.T) {
	sets := [][]int32{{0, 1}, {1, 2}, {3}, {0, 3}, {4}}
	x := shardIndexFromSets(5, 2, nil, sets)
	seeds := []int32{0, 4}
	want := bruteCoverage(sets, seeds)
	if got := x.CoverageOf(seeds); got != want {
		t.Fatalf("pre-wrap CoverageOf = %d, want %d", got, want)
	}
	for s := range x.shards {
		x.shards[s].run = math.MaxUint32
		x.shards[s].newRun()
		if x.shards[s].run != 1 {
			t.Fatalf("shard %d run after wraparound = %d, want 1", s, x.shards[s].run)
		}
	}
	if got := x.CoverageOf(seeds); got != want {
		t.Fatalf("post-wrap CoverageOf = %d, want %d", got, want)
	}
	res := x.SelectSeeds(GreedyOptions{K: 2})
	if res.TotalCoverage(0) != 3 {
		t.Fatalf("post-wrap selection coverage = %d, want 3", res.TotalCoverage(0))
	}
}

// TestShardedSelectSeedsScratchReuse verifies the selection scratch is
// recycled across runs on a four-shard index: repeated selections on a
// warm index allocate only the returned Seeds/Coverage slices.
func TestShardedSelectSeedsScratchReuse(t *testing.T) {
	const n = 200
	r := rng.New(3)
	x := shardIndexFromSets(n, 4, nil, randomSets(r, n, 2000, 8))
	x.SelectSeeds(GreedyOptions{K: 10}) // warm: builds shards + scratch
	allocs := testing.AllocsPerRun(20, func() {
		x.SelectSeeds(GreedyOptions{K: 10})
	})
	if allocs > 3 {
		t.Fatalf("SelectSeeds allocates %.1f objects/run on a warm four-shard index", allocs)
	}

	// A long selection evaluates the Λᵘ walk at more prefixes and with a
	// larger L; its frontier is index scratch too, so K = TopL = 500
	// allocates no more than K = 50.
	const big = 2000
	y := shardIndexFromSets(big, 4, nil, randomSets(r, big, 8000, 8))
	warmAllocs := func(k int) float64 {
		y.SelectSeeds(GreedyOptions{K: k, TopL: k})
		return testing.AllocsPerRun(10, func() {
			y.SelectSeeds(GreedyOptions{K: k, TopL: k})
		})
	}
	small, large := warmAllocs(50), warmAllocs(500)
	if large > small {
		t.Fatalf("warm SelectSeeds allocates %.1f objects/run at K=500, %.1f at K=50", large, small)
	}
}

// TestShardedRebuildScratchReuse verifies the per-shard double-buffered
// rebuild on a two-shard index: at steady-state capacity a same-sized
// delta re-index must not allocate. Each Add opens a fill, so the
// absorption log grows too; its amortised growth must stay below the
// budget.
func TestShardedRebuildScratchReuse(t *testing.T) {
	const n = 100
	r := rng.New(5)
	x := NewIndex(n, nil, 2)
	warm := randomSets(r, n, 4000, 6)
	for i, set := range warm {
		x.Add(set)
		if i%500 == 0 {
			x.Degree(0)
		}
	}
	x.Degree(0)
	sets := randomSets(r, n, 40, 6)
	i := 0
	allocs := testing.AllocsPerRun(10, func() {
		x.Add(sets[i%len(sets)])
		i++
		x.Degree(0) // forces the delta rebuild
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state two-shard delta rebuild allocates %.1f objects/run", allocs)
	}
}

func TestShardedConstructionClamps(t *testing.T) {
	if got := NewIndex(10, nil, 0).NumShards(); got != 1 {
		t.Errorf("shards=0 clamps to %d, want 1", got)
	}
	x := NewIndex(10, nil, 2)
	x.SetWorkers(0)
	if x.Workers() != 1 {
		t.Errorf("SetWorkers(0) leaves %d, want 1", x.Workers())
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched outDeg length did not panic")
		}
	}()
	NewIndex(10, make([]int32, 3), 2)
}

func TestShardedRevisedRequiresOutDeg(t *testing.T) {
	x := shardIndexFromSets(5, 2, nil, [][]int32{{0}, {1}})
	defer func() {
		if recover() == nil {
			t.Error("Revised greedy without out-degrees did not panic")
		}
	}()
	x.SelectSeeds(GreedyOptions{K: 1, Revised: true})
}

// TestShardedReduceVisibleInTimeline pins the observability contract of
// the fanned-out CELF rounds: with the reduce threshold forced, a
// select over a timeline-attached four-shard index must emit PhaseReduce
// records from >1 worker — the spans that make rounds beyond the first
// visible as parallel in the /timeline digest and the Perfetto trace.
// (At laptop-scale posting masses the threshold honestly keeps the
// reduce inline, so visibility is pinned here, scale-independently.)
func TestShardedReduceVisibleInTimeline(t *testing.T) {
	forceParallelAll(t)
	r := rng.New(71)
	sets := randomSets(r, 80, 600, 10)
	x := NewIndex(80, nil, 4)
	var now atomic.Int64
	tl := timeline.New(1024, func() int64 { return now.Add(1000) })
	x.SetTimeline(tl)
	for _, s := range sets {
		x.Add(rrset.RRSet(s))
	}
	x.SetWorkers(4)
	if res := x.SelectSeeds(GreedyOptions{K: 8}); len(res.Seeds) != 8 {
		t.Fatalf("selected %d seeds, want 8", len(res.Seeds))
	}
	sum := timeline.Summarize(tl.Snapshot())
	for _, p := range sum.Phases {
		if p.Phase == timeline.PhaseReduce.String() {
			if p.Records == 0 || p.Workers < 2 {
				t.Fatalf("reduce phase records=%d workers=%d, want parallel records", p.Records, p.Workers)
			}
			return
		}
	}
	t.Fatalf("no %q phase in timeline digest: %+v", timeline.PhaseReduce.String(), sum.Phases)
}

// TestSetAbsorptionOrder pins the Set contract: sets come back fill by
// fill and, within one fill, shard by shard, so the sets one fill adds
// are exactly Set(NumSets before it) … Set(NumSets()-1) — including
// after sets dropped in place, and across every ingestion path.
func TestSetAbsorptionOrder(t *testing.T) {
	x := NewIndex(100, nil, 3)
	var want [][]int32

	// A direct fill: shard 1 gets two sets (one dropped again, as a
	// sentinel hit would be), shard 0 one, shard 2 none.
	x.BeginFill()
	x.ShardArena(1).Append([]int32{1})
	x.ShardArena(1).Append([]int32{9, 9})
	x.ShardArena(1).DropLast()
	x.ShardArena(0).Append([]int32{0})
	x.ShardArena(1).Append([]int32{2, 3})
	want = append(want, []int32{0}, []int32{1}, []int32{2, 3})

	// Per-set adds and a batch, all routed by collection index: one run,
	// read back in append order (the sentinel hit 99 is skipped).
	x.Add(rrset.RRSet{4})
	x.Add(rrset.RRSet{5, 6})
	data := []int32{7, 8, 99, 10, 11, 12}
	ends := []int64{1, 2, 3, 4, 5, 6}
	sentinel := make([]bool, 100)
	sentinel[99] = true
	if hits := x.AbsorbArena(data, ends, sentinel); hits != 1 {
		t.Fatalf("AbsorbArena hits = %d, want 1", hits)
	}
	want = append(want, []int32{4}, []int32{5, 6}, []int32{7}, []int32{8}, []int32{10}, []int32{11}, []int32{12})

	// An empty fill changes nothing; a second direct fill follows.
	x.BeginFill()
	x.BeginFill()
	x.ShardArena(2).Append([]int32{13})
	x.ShardArena(0).Append([]int32{14})
	want = append(want, []int32{14}, []int32{13})

	if x.NumSets() != len(want) {
		t.Fatalf("NumSets = %d, want %d", x.NumSets(), len(want))
	}
	for i, w := range want {
		got := x.Set(i)
		if len(got) != len(w) {
			t.Fatalf("Set(%d) = %v, want %v", i, got, w)
		}
		for j := range w {
			if got[j] != w[j] {
				t.Fatalf("Set(%d) = %v, want %v", i, got, w)
			}
		}
	}
}

// TestAddRunLog pins the cost of per-set ingestion on a multi-shard
// index (TIM+'s KPT phase adds one set at a time): a run of Adds is one
// absorption-log entry however long it is, Set reads it back in append
// order, and a fill between two runs splits them into three entries.
func TestAddRunLog(t *testing.T) {
	x := NewIndex(50, nil, 8)
	add := func(from, to int) {
		for i := from; i < to; i++ {
			x.Add(rrset.RRSet{int32(i % 50), int32((i * 7) % 50)})
		}
	}
	check := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			got := x.Set(i)
			if len(got) != 2 || got[0] != int32(i%50) || got[1] != int32((i*7)%50) {
				t.Fatalf("Set(%d) = %v", i, got)
			}
		}
	}
	add(0, 1000)
	if len(x.fillFirst) != 1 || len(x.fillMark) != 8 {
		t.Fatalf("1000 Adds left %d log entries (%d marks), want 1 (8)", len(x.fillFirst), len(x.fillMark))
	}
	check(0, 1000)

	x.BeginFill()
	x.ShardArena(5).Append([]int32{1, 2, 3})
	add(1001, 1500)
	if len(x.fillFirst) != 3 {
		t.Fatalf("run, fill, run left %d log entries, want 3", len(x.fillFirst))
	}
	check(0, 1000)
	if got := x.Set(1000); len(got) != 3 {
		t.Fatalf("Set(1000) = %v, want the filled set", got)
	}
	check(1001, 1500)
}
