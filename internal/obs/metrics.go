package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"subsim/internal/obs/flight"
	"subsim/internal/obs/timeline"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe no-ops so disabled instrumentation threads through for free.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 value (latest-wins) for live
// progress signals such as the certified bounds. All methods are
// nil-safe no-ops; the zero value reads as 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Load returns the current value (0 for a nil gauge).
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// IntGauge is an atomically settable int64 value (latest-wins), used for
// "current round" style progress. All methods are nil-safe no-ops.
type IntGauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *IntGauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Load returns the current value (0 for a nil gauge).
func (g *IntGauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// NumBuckets is the fixed bucket count of Histogram: bucket 0 holds
// values <= 0, bucket i (1 <= i < NumBuckets-1) holds values in
// [2^(i-1), 2^i), and the last bucket absorbs everything from
// 2^(NumBuckets-2) upward.
const NumBuckets = 40

// Histogram is a fixed-bucket power-of-two histogram. Observe costs one
// bits.Len plus three uncontended atomic adds, cheap enough for the RR
// generation hot path. The zero value is ready to use; a nil *Histogram
// is a no-op.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// bucketIndex maps a value to its bucket: 0 for v <= 0, bits.Len64(v)
// (i.e. [2^(i-1), 2^i) -> i) clamped to the overflow bucket otherwise.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v))
	if i > NumBuckets-1 {
		i = NumBuckets - 1
	}
	return i
}

// BucketUpper returns the inclusive upper bound of bucket i: 0 for
// bucket 0, 2^i-1 for the middle buckets, and +Inf (represented as -1)
// for the overflow bucket. Exported for exporters and tests.
func BucketUpper(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= NumBuckets-1:
		return -1 // +Inf
	default:
		return int64(1)<<uint(i) - 1
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket returns the count of bucket i (0 when out of range or nil).
func (h *Histogram) Bucket(i int) int64 {
	if h == nil || i < 0 || i >= NumBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

// Mean returns the average observed value, or 0 before any observation.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// BucketCount is one non-empty histogram bucket in a snapshot. Le is the
// inclusive upper bound of the bucket; -1 encodes +Inf (the overflow
// bucket).
type BucketCount struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram with only its
// non-empty buckets, suitable for JSON reports.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot copies the histogram. The result of a concurrent snapshot is
// a consistent-enough view for reporting (buckets are read one by one).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := 0; i < NumBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Le: BucketUpper(i), Count: n})
		}
	}
	return s
}

// MetricSet bundles the well-known RR-generation instruments. All
// instruments are concurrency-safe; the set is shared by every worker of
// a run. Access the fields directly from instrumented code (after a
// single nil check on the set), or via the nil-safe accessors.
type MetricSet struct {
	// RRSize observes the node count of every generated RR set
	// (Figure 3b's average RR size is RRSize.Mean()).
	RRSize Histogram
	// EdgesPerSet observes the edge examinations of every generated RR
	// set (the Lemma 4 cost measure, per set).
	EdgesPerSet Histogram
	// SkipLen observes individual geometric-skip lengths drawn by the
	// SUBSIM samplers.
	SkipLen Histogram
	// Sets, Nodes and Edges are running totals across all workers.
	Sets  Counter
	Nodes Counter
	Edges Counter
	// SentinelHits counts RR sets truncated by a sentinel node.
	SentinelHits Counter
	// IndexBuild observes the wall-clock nanoseconds of each CSR
	// inverted-index (re)build in coverage.Index (all paths).
	IndexBuild Histogram
	// IndexBuildSerial and IndexBuildParallel split IndexBuild by the
	// build path taken: all shards rebuilt on the calling goroutine vs
	// the dirty shards rebuilt across parallel lanes. Their counts sum to
	// IndexBuild's, so the parallel-path hit rate is directly readable.
	IndexBuildSerial   Histogram
	IndexBuildParallel Histogram
	// IndexEntries counts the postings (node→set pairs) placed by CSR
	// index builds; with Nodes it yields the indexing amplification.
	IndexEntries Counter

	// Timeline, when non-nil, records per-worker execution intervals
	// alongside the cumulative counters (see internal/obs/timeline).
	// Set before workers start — typically by Tracer.EnableTimeline —
	// and never replaced mid-run; instrumented code reads it through the
	// nil-safe TimelineRing accessor.
	Timeline *timeline.Timeline

	// Lower, Upper and Approx are the live certified bounds (Equations
	// 1/2) as of the most recent bound-check, published by the algorithms
	// through SetBounds so the /progress endpoint can watch them tighten
	// mid-run. Round is the doubling round that produced them.
	Lower  Gauge
	Upper  Gauge
	Approx Gauge
	Round  IntGauge

	// ThetaWorst and ThetaTight are the worst-case (IMM/OPIM-C) and
	// tightened (Sadeh–Cohen–Kaplan style) RR sample budgets of the
	// current run, published through SetTheta. ThetaSaved accumulates
	// the budget reduction actually engaged when Options.Bound selects
	// the tightened analysis.
	ThetaWorst IntGauge
	ThetaTight IntGauge
	ThetaSaved Counter

	// flightRec mirrors the coordinator-stream journal recorder of an
	// attached flight recorder (see Tracer.EnableFlight) so the bound/θ
	// publishers can journal their updates with one atomic load. Nil —
	// and therefore free, per the flight nil contract — until a flight
	// recorder is attached.
	flightRec atomic.Pointer[flight.Recorder]

	mu         sync.Mutex
	workers    []*Counter
	workerBusy []*Counter
}

// NewMetricSet returns an empty, enabled metric set.
func NewMetricSet() *MetricSet { return &MetricSet{} }

// WorkerSets returns the sets-generated counter of worker w, growing the
// vector as needed. Returns nil (a no-op counter) on a nil set or a
// negative index.
func (m *MetricSet) WorkerSets(w int) *Counter {
	if m == nil || w < 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.workers) <= w {
		m.workers = append(m.workers, &Counter{})
	}
	return m.workers[w]
}

// WorkerSnapshot returns the per-worker sets-generated totals.
func (m *MetricSet) WorkerSnapshot() []int64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, len(m.workers))
	for i, c := range m.workers {
		out[i] = c.Load()
	}
	return out
}

// WorkerBusyNS returns the busy-nanoseconds counter of worker w, growing
// the vector as needed. The rrset.Instrument wrapper adds each set's
// generation duration to it, so busy_ns / wall-clock is the worker's
// sampling utilization. Returns nil (a no-op counter) on a nil set or a
// negative index.
func (m *MetricSet) WorkerBusyNS(w int) *Counter {
	if m == nil || w < 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.workerBusy) <= w {
		m.workerBusy = append(m.workerBusy, &Counter{})
	}
	return m.workerBusy[w]
}

// TimelineRing returns worker w's timeline ring, or nil — the disabled
// ring, whose Record and Now are no-ops — when the set is nil or no
// timeline is attached. This is the one accessor instrumented code
// should use: it collapses the three-level nil check (set, timeline,
// ring) into one call made once per worker at setup time.
func (m *MetricSet) TimelineRing(w int) *timeline.Ring {
	if m == nil {
		return nil
	}
	return m.Timeline.Worker(w)
}

// WorkerBusySnapshot returns the per-worker busy-nanosecond totals
// (nil when no worker ever recorded busy time).
func (m *MetricSet) WorkerBusySnapshot() []int64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.workerBusy) == 0 {
		return nil
	}
	out := make([]int64, len(m.workerBusy))
	for i, c := range m.workerBusy {
		out[i] = c.Load()
	}
	return out
}

// SetBounds publishes the latest certified bounds and the round that
// produced them; the live /progress endpoint reads them back. Nil-safe,
// allocation-free: four atomic stores, plus a journal event when a
// flight recorder is attached. Round is stored last so a reader that
// observes round i sees bounds from round i or newer — never a fresh
// round number over stale bounds (the ordering contract documented in
// DESIGN.md "Live telemetry plane").
func (m *MetricSet) SetBounds(round int, lower, upper, approx float64) {
	if m == nil {
		return
	}
	m.Lower.Set(lower)
	m.Upper.Set(upper)
	m.Approx.Set(approx)
	m.Round.Set(int64(round))
	m.flightRec.Load().Emit(flight.KindBounds, "", int64(round), 0, lower, upper, approx)
}

// SetTheta publishes the run's worst-case and tightened RR sample
// budgets. Nil-safe, allocation-free: two atomic stores, plus a journal
// event when a flight recorder is attached. The tightened budget is
// stored first, so a reader that sees ThetaWorst set also sees it.
func (m *MetricSet) SetTheta(worst, tight int64) {
	if m == nil {
		return
	}
	m.ThetaTight.Set(tight)
	m.ThetaWorst.Set(worst)
	m.flightRec.Load().Emit(flight.KindTheta, "", worst, tight, 0, 0, 0)
}

// AddThetaSaved accumulates RR sample budget shaved off by an engaged
// tightened bound. Nil-safe, like every instrument entry point, so
// algorithm code can call it through a disabled tracer.
func (m *MetricSet) AddThetaSaved(d int64) {
	if m == nil || d <= 0 {
		return
	}
	m.ThetaSaved.Add(d)
}
