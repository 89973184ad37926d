package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WritePrometheus dumps the metric set in the Prometheus text exposition
// format (counters and cumulative histograms, `subsim_` prefixed). It is
// what the CLIs print under -metrics and what an expvar/pprof endpoint
// can serve for scraping.
func (m *MetricSet) WritePrometheus(w io.Writer) error {
	if m == nil {
		return nil
	}
	counters := []struct {
		name, help string
		v          int64
	}{
		{"subsim_rr_sets_total", "RR sets generated.", m.Sets.Load()},
		{"subsim_rr_nodes_total", "Total nodes across all RR sets.", m.Nodes.Load()},
		{"subsim_rr_edges_examined_total", "Edge examinations (Lemma 4 cost).", m.Edges.Load()},
		{"subsim_sentinel_hits_total", "RR sets truncated by a sentinel.", m.SentinelHits.Load()},
		{"subsim_index_entries_total", "Postings placed by CSR inverted-index builds.", m.IndexEntries.Load()},
		{"subsim_theta_saved_total", "RR sample budget shaved off by the tightened bound.", m.ThetaSaved.Load()},
	}
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			c.name, c.help, c.name, c.name, c.v); err != nil {
			return err
		}
	}
	gauges := []struct {
		name, help string
		v          float64
	}{
		{"subsim_bound_lower", "Live certified influence lower bound (Eq. 1).", m.Lower.Load()},
		{"subsim_bound_upper", "Live certified optimum upper bound (Eq. 2).", m.Upper.Load()},
		{"subsim_bound_approx", "Live certified approximation ratio (lower/upper).", m.Approx.Load()},
		{"subsim_round", "Doubling round of the latest bound-check.", float64(m.Round.Load())},
		{"subsim_theta_worst", "Worst-case RR sample budget (IMM/OPIM-C analysis).", float64(m.ThetaWorst.Load())},
		{"subsim_theta_tight", "Tightened RR sample budget (Sadeh-Cohen-Kaplan analysis).", float64(m.ThetaTight.Load())},
	}
	for _, g := range gauges {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			g.name, g.help, g.name, g.name, formatPromFloat(g.v)); err != nil {
			return err
		}
	}
	hists := []struct {
		name, help string
		h          *Histogram
	}{
		{"subsim_rr_size", "RR set size (nodes).", &m.RRSize},
		{"subsim_rr_edges_per_set", "Edge examinations per RR set.", &m.EdgesPerSet},
		{"subsim_geom_skip_len", "Geometric skip lengths (SUBSIM).", &m.SkipLen},
		{"subsim_index_build_ns", "CSR inverted-index build duration (ns).", &m.IndexBuild},
		{"subsim_index_build_serial_ns", "CSR index builds taking the serial delta path (ns).", &m.IndexBuildSerial},
		{"subsim_index_build_parallel_ns", "CSR index builds taking the parallel per-shard path (ns).", &m.IndexBuildParallel},
	}
	for _, h := range hists {
		if err := writePromHistogram(w, h.name, h.help, h.h); err != nil {
			return err
		}
	}
	if workers := m.WorkerSnapshot(); len(workers) > 0 {
		name := "subsim_worker_sets_total"
		if _, err := fmt.Fprintf(w, "# HELP %s RR sets generated per worker.\n# TYPE %s counter\n", name, name); err != nil {
			return err
		}
		for wkr, v := range workers {
			if _, err := fmt.Fprintf(w, "%s{worker=\"%d\"} %d\n", name, wkr, v); err != nil {
				return err
			}
		}
	}
	if busy := m.WorkerBusySnapshot(); len(busy) > 0 {
		name := "subsim_worker_busy_ns_total"
		if _, err := fmt.Fprintf(w, "# HELP %s Nanoseconds each worker spent generating RR sets.\n# TYPE %s counter\n", name, name); err != nil {
			return err
		}
		for wkr, v := range busy {
			if _, err := fmt.Fprintf(w, "%s{worker=\"%d\"} %d\n", name, wkr, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatPromFloat renders a float in the exposition format: integral
// values print without an exponent so the common zero/round cases stay
// human-readable and stable for golden tests.
func formatPromFloat(v float64) string {
	if v >= -1e15 && v <= 1e15 && v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writePromHistogram(w io.Writer, name, help string, h *Histogram) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		n := h.Bucket(i)
		if n == 0 && i < NumBuckets-1 {
			continue // keep the dump sparse; cumulative counts stay exact
		}
		cum += n
		le := "+Inf"
		if ub := BucketUpper(i); ub >= 0 {
			le = fmt.Sprintf("%d", ub)
		}
		if i == NumBuckets-1 {
			cum = h.Count() // the +Inf bucket always equals the count
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum(), name, h.Count())
	return err
}

// WritePrometheus renders the report's counter and histogram snapshots
// in the same exposition format, for offline artifacts.
func (r *Report) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.Counters))
	for name := range r.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "# TYPE subsim_%s counter\nsubsim_%s %d\n",
			name, name, r.Counters[name]); err != nil {
			return err
		}
	}
	hnames := make([]string, 0, len(r.Histograms))
	for name := range r.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := r.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE subsim_%s histogram\n", name); err != nil {
			return err
		}
		var cum int64
		sawInf := false
		for _, b := range h.Buckets {
			cum += b.Count
			le := "+Inf"
			if b.Le >= 0 {
				le = fmt.Sprintf("%d", b.Le)
			} else {
				sawInf = true
				cum = h.Count // the +Inf bucket always equals the count
			}
			if _, err := fmt.Fprintf(w, "subsim_%s_bucket{le=\"%s\"} %d\n", name, le, cum); err != nil {
				return err
			}
		}
		if !sawInf {
			// The exposition format requires a terminal +Inf bucket even
			// when no observation overflowed.
			if _, err := fmt.Fprintf(w, "subsim_%s_bucket{le=\"+Inf\"} %d\n", name, h.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "subsim_%s_sum %d\nsubsim_%s_count %d\n", name, h.Sum, name, h.Count); err != nil {
			return err
		}
	}
	return nil
}
