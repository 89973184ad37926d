package main

import (
	"fmt"
	"runtime"
	"time"

	"subsim"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// replay re-drives the workload's algorithm at the given worker count
// through the layers' public functions and checks that it reproduces
// Maximize's result field for field.
func (m *measurement) replay(workers int) (layers, bool) {
	var l layers
	gen := subsim.NewRRGenerator(m.g, subsim.GenSubsim)
	opt := m.options(workers, nil)
	var res *subsim.Result
	var err error
	runtime.GC()
	if m.cfg.w.alg == subsim.AlgHISTSubsim {
		res, err = replayHIST(gen, opt, &l)
	} else {
		res, err = replayOPIMC(gen, opt, &l)
	}
	m.attempted++
	what := fmt.Sprintf("replay at W=%d", workers)
	if err != nil {
		m.fail(what + ": " + err.Error())
		return l, false
	}
	return l, m.check(what, res)
}

// kernel times an isolated single-threaded loop of
// rrset.GenerateRandomInto into one arena, over a fresh generator of the
// workload, until the workload's edge-examination budget is spent. On
// HIST the traversals stop at the run's sentinel set, as in its residual
// phase. It returns ns per edge examined, ns per set, edges per set and
// nodes per set.
func (m *measurement) kernel() (nsEdge, nsSet, edges, nodes float64) {
	gen := subsim.NewRRGenerator(m.g, subsim.GenSubsim)
	var sentinel []bool
	if m.cfg.w.alg == subsim.AlgHISTSubsim {
		sentinel = markSentinels(m.g.N(), m.ref.Seeds[:m.ref.SentinelSize])
	}
	a := rrset.NewArena(0, 0)
	src := rng.New(m.cfg.seed)
	const resetNodes = 1 << 22
	start := time.Now()
	for i := uint64(0); gen.Stats().EdgesExamined < m.cfg.w.kernel; i++ {
		src.Seed(m.cfg.seed ^ (i * 0x9e3779b97f4a7c15))
		rrset.GenerateRandomInto(gen, a, src, sentinel)
		if a.NumNodes() > resetNodes {
			a.Reset()
		}
	}
	d := float64(time.Since(start).Nanoseconds())
	s := gen.Stats()
	return d / float64(s.EdgesExamined), d / float64(s.Sets),
		float64(s.EdgesExamined) / float64(s.Sets), float64(s.Nodes) / float64(s.Sets)
}

// setupReps is how many times the traced run sets up, for the graph.*
// metrics.
const setupReps = 5

// traced measures the per-layer metrics in this process: set-up
// repeated setupReps times, then per iteration a bare and a traced
// Maximize at each worker count (the tracing overhead), a replay at
// each worker count (the layer split, checked against Maximize), and
// the isolated RR-generation kernel loop.
func (m *measurement) traced(path string) error {
	var load, weights, prep samples
	for i := 0; i < setupReps; i++ {
		m.g = nil
		runtime.GC()
		g, l, w, p, err := setupOnce(m.cfg.w, path)
		if err != nil {
			return err
		}
		m.g = g
		load, weights, prep = append(load, l), append(weights, w), append(prep, p)
	}
	fmt.Fprintf(m.out, "graph.load_s: %s\n", load.describe("s"))

	var (
		ovN, ov1                       samples
		fillN, fill1                   samples
		lay                            []layers
		kNsEdge, kNsSet, kEdges, kNode samples
	)
	deadline := time.Now().Add(m.cfg.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		for j, w := range m.order(i) {
			var bare, traced float64
			var ok1, ok2 bool
			if (i+j)%2 == 0 {
				bare, ok1 = m.solve(w, nil)
				traced, ok2 = m.solve(w, subsim.NewTracer())
			} else {
				traced, ok2 = m.solve(w, subsim.NewTracer())
				bare, ok1 = m.solve(w, nil)
			}
			if ok1 && ok2 {
				if w == m.workers {
					ovN = append(ovN, traced/bare)
				} else {
					ov1 = append(ov1, traced/bare)
				}
			}
			l, ok := m.replay(w)
			if !ok {
				continue
			}
			if w == m.workers {
				fillN = append(fillN, l.fill.Seconds())
				lay = append(lay, l)
			} else {
				fill1 = append(fill1, l.fill.Seconds())
			}
		}
		if m.ref != nil { // on HIST the kernel loop needs the run's sentinel set
			nsEdge, nsSet, edges, nodes := m.kernel()
			kNsEdge = append(kNsEdge, nsEdge)
			kNsSet = append(kNsSet, nsSet)
			kEdges = append(kEdges, edges)
			kNode = append(kNode, nodes)
		}
	}
	fmt.Fprintf(m.out, "replays: fill_s W=%d %s; fill_s W=1 %s\n", m.workers, fillN.describe("s"), fill1.describe("s"))
	fmt.Fprintf(m.out, "obs overhead: W=%d %s; W=1 %s\n", m.workers, ovN.describe("x"), ov1.describe("x"))
	if m.ref == nil {
		return nil
	}

	pick := func(f func(l layers) float64) float64 {
		var s samples
		for _, l := range lay {
			s = append(s, f(l))
		}
		return s.median()
	}
	sec := func(d time.Duration) float64 { return d.Seconds() }
	m.metrics = map[string]metric{
		"graph.load_s":     {load.median(), "s"},
		"graph.weights_s":  {weights.median(), "s"},
		"graph.gen_prep_s": {prep.median(), "s"},

		"rrset.ns_per_edge":   {kNsEdge.median(), "ns/edge"},
		"rrset.ns_per_set":    {kNsSet.median(), "ns/set"},
		"rrset.edges_per_set": {kEdges.median(), "edges/set"},
		"rrset.nodes_per_set": {kNode.median(), "nodes/set"},

		"fill.s":           {fillN.median(), "s"},
		"fill.share":       {pick(func(l layers) float64 { return sec(l.fill) / sec(l.total) }), "ratio"},
		"fill.ns_per_set":  {pick(func(l layers) float64 { return float64(l.fill) / float64(l.fillStats.Sets) }), "ns/set"},
		"fill.ns_per_edge": {pick(func(l layers) float64 { return float64(l.fill) / float64(l.fillStats.EdgesExamined) }), "ns/edge"},
		"fill.speedup":     {fill1.median() / fillN.median(), "ratio"},

		"index.build_s":         {pick(func(l layers) float64 { return sec(l.build) }), "s"},
		"index.ns_per_posting":  {pick(func(l layers) float64 { return float64(l.build) / float64(l.built) }), "ns/posting"},
		"select.s":              {pick(func(l layers) float64 { return sec(l.sel) }), "s"},
		"select.calls":          {pick(func(l layers) float64 { return float64(l.selCalls) }), "count"},
		"select.ns_per_posting": {pick(func(l layers) float64 { return float64(l.sel) / float64(l.selPost) }), "ns/posting"},
		"select.share":          {pick(func(l layers) float64 { return sec(l.sel) / sec(l.total) }), "ratio"},
		"coverage_of.s":         {pick(func(l layers) float64 { return sec(l.covOf) }), "s"},
		"index.mem_mb":          {pick(func(l layers) float64 { return float64(l.memBytes) / (1 << 20) }), "MB"},

		"bound_check.s": {pick(func(l layers) float64 { return sec(l.bound) }), "s"},

		"rounds":             {float64(m.ref.Rounds), "count"},
		"hist.sentinel_s":    {pick(func(l layers) float64 { return sec(l.sentinel) }), "s"},
		"hist.residual_s":    {pick(func(l layers) float64 { return sec(l.residual) }), "s"},
		"hist.sentinel_rr":   {float64(m.ref.SentinelRR), "count"},
		"hist.sentinel_size": {float64(m.ref.SentinelSize), "count"},
		"hist.hit_rate": {pick(func(l layers) float64 {
			if l.residualStats.Sets == 0 {
				return 0
			}
			return float64(l.residualStats.SentinelHits) / float64(l.residualStats.Sets)
		}), "ratio"},

		"obs.overhead_w1": {ov1.median(), "ratio"},
		"obs.overhead_wn": {ovN.median(), "ratio"},
	}
	return nil
}

// order alternates which worker count runs first from one iteration to
// the next, so neither side always runs on a warmer or cooler host.
func (m *measurement) order(i int) []int {
	if i%2 == 0 {
		return []int{m.workers, 1}
	}
	return []int{1, m.workers}
}
