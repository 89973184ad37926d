package im

import (
	"testing"
	"unsafe"
)

// TestBatchWorkerLayout pins the padding of the per-worker state: every
// mutable field lives in the leading workerState, and the padding after
// it is at least one cache line, so in a []batchWorker no two workers'
// mutable bytes share a 64-byte line whatever the slice's alignment.
func TestBatchWorkerLayout(t *testing.T) {
	var w batchWorker
	state := unsafe.Sizeof(workerState{})
	size := unsafe.Sizeof(w)
	if size%cacheLine != 0 {
		t.Errorf("batchWorker is %d bytes, not a multiple of %d", size, cacheLine)
	}
	if size-state < cacheLine {
		t.Errorf("batchWorker pads workerState (%d bytes) by %d bytes, want >= %d", state, size-state, cacheLine)
	}
	if off := unsafe.Offsetof(w.workerState); off != 0 {
		t.Errorf("workerState at offset %d, want 0", off)
	}
	for name, f := range map[string]struct{ off, size uintptr }{
		"gen":   {unsafe.Offsetof(w.gen), unsafe.Sizeof(w.gen)},
		"src":   {unsafe.Offsetof(w.src), unsafe.Sizeof(w.src)},
		"arena": {unsafe.Offsetof(w.arena), unsafe.Sizeof(w.arena)},
		"base":  {unsafe.Offsetof(w.base), unsafe.Sizeof(w.base)},
		"hits":  {unsafe.Offsetof(w.hits), unsafe.Sizeof(w.hits)},
	} {
		if f.off+f.size > state {
			t.Errorf("field %s [%d,%d) lies outside workerState (%d bytes)", name, f.off, f.off+f.size, state)
		}
	}

	// In a real batcher, the last mutable byte of worker i and the first
	// of worker i+1 sit on different cache lines.
	b := NewBatcher(nilGraphGen{}, 1, 4)
	for i := 0; i+1 < len(b.workers); i++ {
		last := uintptr(unsafe.Pointer(&b.workers[i])) + state - 1
		next := uintptr(unsafe.Pointer(&b.workers[i+1]))
		if last/cacheLine == next/cacheLine {
			t.Errorf("workers %d and %d share cache line %#x", i, i+1, last/cacheLine*cacheLine)
		}
	}
}
