// Package timeline is the execution-timeline layer of the observability
// stack: a lock-free, fixed-capacity record of *when* each worker was
// busy and in which phase, complementing the cumulative busy-ns counters
// of obs.MetricSet (which say how much, never when). The records feed
// two exporters — a Chrome trace-event JSON document loadable in
// Perfetto / chrome://tracing (trace.go) and a compact per-phase
// utilization/imbalance summary folded into the run report (summary.go)
// — so serial gaps and load skew in the parallel RR pipeline become
// visible instead of inferred.
//
// # Memory-ordering contract (single-writer rings, seqlock export)
//
// Each worker owns one Ring and is its only writer; the export side
// (the live telemetry plane, the run report) reads concurrently and
// lock-free. The protocol, per slot:
//
//   - the writer loads its cursor n (only it ever stores the cursor),
//     picks slot n&mask, stores seq = 2n+1 (odd: "being written"),
//     stores the phase/start/end fields, stores seq = 2(n+1) (even:
//     "generation n complete"), and finally publishes cursor = n+1;
//   - a reader snapshots the cursor, walks the last min(cursor, cap)
//     logical records, and for each validates the slot's seq equals
//     2(i+1) both before reading the fields and after — a mismatch means
//     the writer lapped the reader mid-read (the record is dropped from
//     the snapshot and counted, never emitted torn).
//
// Every field involved is accessed atomically, so the scheme is clean
// under the race detector, and a Record costs six uncontended atomic
// operations and zero allocations — cheap enough for the per-RR-set
// generation path, and exactly 0 allocs on the nil (disabled) path per
// the nil-tracer contract (every method of Timeline and Ring is nil-safe).
package timeline

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phase labels one timeline interval with the pipeline section that
// produced it.
type Phase uint8

const (
	// PhaseGenerate is one RR-set reverse traversal (recorded per set by
	// rrset.InstrumentWorker).
	PhaseGenerate Phase = iota
	// PhaseIndexBuild is one worker's share of the per-shard delta CSR
	// rebuilds in coverage.Index (one interval per lane, or one for the
	// whole serial rebuild).
	PhaseIndexBuild
	// PhaseGains is one worker's share of the first CELF round (the
	// initial-gain pass of coverage.Index.SelectSeeds).
	PhaseGains
	// PhaseSelect is the serial lazy-greedy CELF loop (coordinator only).
	PhaseSelect
	// PhaseReduce is one worker's share of a fanned-out CELF round in
	// coverage.Index: a per-shard partial marginal recompute or
	// covered-bit update whose partial aggregates are tree-reduced by the
	// coordinator. These records are what make rounds beyond the first
	// visible as parallel in the timeline digest.
	PhaseReduce
	// PhaseOther is the catch-all for callers outside the known pipeline.
	PhaseOther

	numPhases
)

var phaseNames = [numPhases]string{
	"generate", "index-build", "select-gains", "select", "reduce", "other",
}

// String returns the stable lower-case phase name used in exports.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "other"
}

// MarshalText renders the phase name, so Record JSON stays readable.
func (p Phase) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a phase name (unknown names map to PhaseOther).
func (p *Phase) UnmarshalText(b []byte) error {
	s := string(b)
	for i := Phase(0); i < numPhases; i++ {
		if phaseNames[i] == s {
			*p = i
			return nil
		}
	}
	*p = PhaseOther
	return nil
}

// DefaultCapacity is the per-worker ring capacity used when New is
// handed a non-positive one: 4096 records ≈ the tail of a sampling round
// per worker at ~96 B/slot.
const DefaultCapacity = 1 << 12

// Record is one exported timeline interval: worker w spent
// [StartNS, EndNS] (nanoseconds since the timeline clock's epoch) in
// the given phase.
type Record struct {
	Worker  int   `json:"worker"`
	Phase   Phase `json:"phase"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// slot is one ring entry. seq follows the seqlock protocol documented
// in the package comment; the remaining fields are only meaningful when
// seq is even.
type slot struct {
	seq   atomic.Uint64
	phase atomic.Uint32
	start atomic.Int64
	end   atomic.Int64
}

// Ring is one worker's fixed-capacity interval record. Exactly one
// goroutine may call Record at a time (the worker owning the ring);
// snapshot reads are lock-free and may run concurrently with the
// writer. A nil Ring is the disabled instrument: Record and Now are
// allocation-free no-ops.
type Ring struct {
	worker int
	mask   uint64
	clock  func() int64
	slots  []slot
	cursor atomic.Uint64 // total records ever written
}

// Worker returns the worker id the ring belongs to (0 for a nil ring).
func (r *Ring) Worker() int {
	if r == nil {
		return 0
	}
	return r.worker
}

// Now reads the timeline clock: nanoseconds since the timeline epoch,
// or 0 on a nil ring. Unlike the tracer's span clock this read takes no
// lock, so it is safe on the concurrent per-set worker path.
func (r *Ring) Now() int64 {
	if r == nil {
		return 0
	}
	return r.clock()
}

// Record appends one interval. Nil-safe, allocation-free, and wait-free
// for the single writer: a full ring overwrites the oldest record (the
// drop is accounted in Snapshot), never blocks.
func (r *Ring) Record(p Phase, startNS, endNS int64) {
	if r == nil {
		return
	}
	n := r.cursor.Load()
	s := &r.slots[n&r.mask]
	s.seq.Store(2*n + 1) // odd: slot under construction
	s.phase.Store(uint32(p))
	s.start.Store(startNS)
	s.end.Store(endNS)
	s.seq.Store(2 * (n + 1)) // even: generation n committed
	r.cursor.Store(n + 1)
}

// Written returns the total number of records ever written (0 for nil).
func (r *Ring) Written() uint64 {
	if r == nil {
		return 0
	}
	return r.cursor.Load()
}

// snapshot appends the ring's currently readable records to out and
// returns the count of records not readable: overwritten by capacity
// wraparound, or skipped because the writer overlapped the read
// (seqlock validation failed).
func (r *Ring) snapshot(out []Record) ([]Record, int64) {
	if r == nil {
		return out, 0
	}
	n := r.cursor.Load()
	span := uint64(len(r.slots))
	lo := uint64(0)
	var dropped int64
	if n > span {
		lo = n - span
		dropped = int64(n - span)
	}
	for i := lo; i < n; i++ {
		s := &r.slots[i&r.mask]
		want := 2 * (i + 1)
		if s.seq.Load() != want {
			dropped++
			continue
		}
		rec := Record{
			Worker:  r.worker,
			Phase:   Phase(s.phase.Load()),
			StartNS: s.start.Load(),
			EndNS:   s.end.Load(),
		}
		if s.seq.Load() != want { // writer lapped us mid-read: torn
			dropped++
			continue
		}
		out = append(out, rec)
	}
	return out, dropped
}

// Timeline owns one Ring per worker over a shared lock-free clock.
// Construct with New (typically through obs.Tracer.EnableTimeline); a
// nil *Timeline is the disabled instrument — every method is a nil-safe
// no-op, so instrumented code threads a disabled timeline through for
// free.
type Timeline struct {
	clock    func() int64
	capacity int

	mu    sync.Mutex              // guards ring-vector growth
	rings atomic.Pointer[[]*Ring] // copy-on-write: readers never lock
}

// WallClock returns the default timeline clock: monotonic nanoseconds
// since the moment of the call, readable concurrently without locks.
func WallClock() func() int64 {
	epoch := time.Now()
	return func() int64 { return int64(time.Since(epoch)) }
}

// New returns a timeline whose per-worker rings hold capacityPerWorker
// records (rounded up to a power of two; non-positive means
// DefaultCapacity). clock supplies nanosecond timestamps and must be
// safe for concurrent use; nil installs WallClock. Tests inject a fake
// clock for byte-stable golden exports.
func New(capacityPerWorker int, clock func() int64) *Timeline {
	if capacityPerWorker <= 0 {
		capacityPerWorker = DefaultCapacity
	}
	capRounded := 1
	for capRounded < capacityPerWorker {
		capRounded <<= 1
	}
	if clock == nil {
		clock = WallClock()
	}
	return &Timeline{clock: clock, capacity: capRounded}
}

// Now reads the timeline clock (0 on a nil timeline).
func (tl *Timeline) Now() int64 {
	if tl == nil {
		return 0
	}
	return tl.clock()
}

// Capacity returns the per-worker ring capacity (0 on nil).
func (tl *Timeline) Capacity() int {
	if tl == nil {
		return 0
	}
	return tl.capacity
}

// Workers returns the number of worker rings created so far (0 on nil).
func (tl *Timeline) Workers() int {
	if tl == nil {
		return 0
	}
	if p := tl.rings.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// Worker returns worker w's ring, creating it (and any lower-indexed
// slots) on first use. Returns nil — the disabled ring — on a nil
// timeline or a negative index. The fast path is one atomic load, so
// handing rings out during worker setup is cheap; the growth path takes
// the timeline mutex and publishes the grown vector copy-on-write.
func (tl *Timeline) Worker(w int) *Ring {
	if tl == nil || w < 0 {
		return nil
	}
	if p := tl.rings.Load(); p != nil && w < len(*p) {
		return (*p)[w]
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	old := tl.rings.Load()
	var cur []*Ring
	if old != nil {
		cur = *old
	}
	if w < len(cur) {
		return cur[w]
	}
	next := make([]*Ring, w+1)
	copy(next, cur)
	for i := len(cur); i <= w; i++ {
		next[i] = &Ring{
			worker: i,
			mask:   uint64(tl.capacity - 1),
			clock:  tl.clock,
			slots:  make([]slot, tl.capacity),
		}
	}
	tl.rings.Store(&next)
	return next[w]
}

// Snapshot is a consistent-enough point-in-time view of the timeline:
// every readable record across all workers, sorted by start time (then
// worker, then end) so exports are deterministic for a deterministic
// clock.
type Snapshot struct {
	// Workers is the number of worker rings at snapshot time.
	Workers int `json:"workers"`
	// Written is the total number of records ever recorded.
	Written int64 `json:"written"`
	// Dropped counts records lost to ring wraparound plus records
	// skipped because the writer overlapped the export read.
	Dropped int64 `json:"dropped"`
	// Records are the readable intervals, ascending by StartNS.
	Records []Record `json:"records"`
}

// Snapshot walks every ring lock-free (see the package comment's
// seqlock contract) and returns the merged, sorted record view. Safe to
// call at any time, including concurrently with active writers; returns
// a zero Snapshot on a nil timeline.
func (tl *Timeline) Snapshot() Snapshot {
	var snap Snapshot
	if tl == nil {
		return snap
	}
	p := tl.rings.Load()
	if p == nil {
		return snap
	}
	rings := *p
	snap.Workers = len(rings)
	total := 0
	for _, r := range rings {
		total += len(r.slots)
	}
	snap.Records = make([]Record, 0, total)
	for _, r := range rings {
		var dropped int64
		snap.Records, dropped = r.snapshot(snap.Records)
		snap.Dropped += dropped
		snap.Written += int64(r.Written())
	}
	sort.SliceStable(snap.Records, func(i, j int) bool {
		a, b := snap.Records[i], snap.Records[j]
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.EndNS < b.EndNS
	})
	return snap
}

// GoString aids test failure output.
func (rec Record) GoString() string {
	return fmt.Sprintf("timeline.Record{W%d %s [%d,%d]}", rec.Worker, rec.Phase, rec.StartNS, rec.EndNS)
}
