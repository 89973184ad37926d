package rrset

import "testing"

func arenaSetsEqual(t *testing.T, a *Arena, want [][]int32) {
	t.Helper()
	if a.Len() != len(want) {
		t.Fatalf("arena holds %d sets, want %d", a.Len(), len(want))
	}
	total := 0
	for i, w := range want {
		got := a.Set(i)
		if len(got) != len(w) {
			t.Fatalf("set %d = %v, want %v", i, got, w)
		}
		for j := range w {
			if got[j] != w[j] {
				t.Fatalf("set %d = %v, want %v", i, got, w)
			}
		}
		total += len(w)
	}
	if a.NumNodes() != total {
		t.Fatalf("NumNodes = %d, want %d", a.NumNodes(), total)
	}
}

func TestArenaAppend(t *testing.T) {
	var a Arena
	a.Append([]int32{1, 2, 3})
	a.Append(nil) // empty sets are legal and occupy one end slot
	a.Append([]int32{4})
	arenaSetsEqual(t, &a, [][]int32{{1, 2, 3}, {}, {4}})
}

// TestArenaDropLast exercises the in-place sentinel-discard path: the
// last committed set vanishes, its nodes return to the free tail, and
// the next append reuses the space.
func TestArenaDropLast(t *testing.T) {
	var a Arena
	a.Append([]int32{1, 2})
	a.Append([]int32{3, 4, 5})
	a.DropLast()
	arenaSetsEqual(t, &a, [][]int32{{1, 2}})
	a.Append([]int32{6})
	arenaSetsEqual(t, &a, [][]int32{{1, 2}, {6}})

	// Dropping down to empty, including a sole set.
	a.DropLast()
	a.DropLast()
	if a.Len() != 0 || a.NumNodes() != 0 {
		t.Fatalf("after dropping all: %d sets / %d nodes", a.Len(), a.NumNodes())
	}

	// Interleave with the generator-style commit path: DropLast must
	// truncate to the previous set's end, not to zero.
	a.Append([]int32{7})
	buf := append(a.Data(), 8, 9)
	a.commit(buf)
	a.DropLast()
	arenaSetsEqual(t, &a, [][]int32{{7}})

	defer func() {
		if recover() == nil {
			t.Error("DropLast on an empty arena did not panic")
		}
	}()
	var empty Arena
	empty.DropLast()
}

func TestArenaMemoryBytes(t *testing.T) {
	var a Arena
	if a.MemoryBytes() != 0 {
		t.Fatalf("empty arena MemoryBytes = %d", a.MemoryBytes())
	}
	a.Append([]int32{1, 2, 3})
	want := int64(cap(a.Data()))*4 + int64(cap(a.Ends()))*8
	if got := a.MemoryBytes(); got != want || got < 3*4+8 {
		t.Fatalf("MemoryBytes = %d, want %d (>= %d)", got, want, 3*4+8)
	}
	// Capacity, not length: DropLast must not shrink the footprint.
	a.DropLast()
	if got := a.MemoryBytes(); got != want {
		t.Fatalf("MemoryBytes after DropLast = %d, want %d", got, want)
	}
}

// TestArenaAppendDropSteadyStateAllocFree pins the in-place fill
// path's allocation behaviour: once grown, an append/drop churn cycle
// costs nothing.
func TestArenaAppendDropSteadyStateAllocFree(t *testing.T) {
	var a Arena
	set := []int32{1, 2, 3, 4}
	for i := 0; i < 100; i++ {
		a.Append(set)
	}
	for i := 0; i < 50; i++ {
		a.DropLast()
	}
	allocs := testing.AllocsPerRun(100, func() {
		a.Append(set)
		a.DropLast()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Append+DropLast allocates %.1f objects/run", allocs)
	}
}
