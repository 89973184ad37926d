// Command scalematrix sweeps the RR pipeline over a declarative
// workers × generator × graph × trials matrix and reports, per phase
// (generate, index-build, select), the speedup and parallel
// efficiency relative to W=1 plus a least-squares Amdahl serial-fraction
// fit — turning "does the parallel pipeline actually scale?" into a
// measured, regression-gated artifact instead of a hope.
//
// Usage:
//
//	scalematrix -graphs pa:20000x8 -gens subsim,vanilla -workers 1,2,4,8
//
// Flags:
//
//	-graphs      comma-separated graph specs type:NxD (pa = preferential
//	             attachment, er = Erdős–Rényi with m = N·D edges); WC
//	             weights
//	-gens        comma-separated generators: subsim, vanilla, bucketed
//	-workers     comma-separated worker counts (must include 1, the
//	             speedup baseline)
//	-trials      trials per cell; the median of each phase wins
//	-sets        RR sets generated per trial
//	-rounds      fill/build/select rounds the sets are split over
//	             (exercises the delta CSR path like the doubling loops do)
//	-k           seeds selected per round
//	-seed        RNG seed (identical across cells; the worker-
//	             independence invariant is asserted on the seed sets)
//	-json        write the full matrix result as JSON (schema
//	             subsim.scalematrix) to this file
//	-bench-file  record bench-style rows (speedup/efficiency extras and
//	             Amdahl fits) into this benchjson file
//	-bench-label label for the -bench-file run (default scale-matrix)
//	-report      write a schema-versioned obs run report (one span per
//	             cell) to this file, obsdiff-compatible
//	-trace       write the last cell's execution timeline (its final
//	             trial, the highest worker count of the sweep) as a
//	             Chrome trace-event JSON loadable in Perfetto — the CI
//	             artifact that shows the fanned-out CELF rounds
//
// Every cell runs with a fresh tracer + execution timeline
// (internal/obs/timeline), so the per-phase wall times are backed by the
// same instrumentation the live telemetry plane serves, and the JSON
// carries each cell's timeline utilization summary. When the sweep asks
// for more workers than GOMAXPROCS the tool prints a loud warning and
// tags every emitted artifact with a caveat: oversubscribed timings
// measure partitioning overhead, not parallel speedup.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"subsim/internal/coverage"
	"subsim/internal/graph"
	"subsim/internal/im"
	"subsim/internal/obs"
	"subsim/internal/obs/timeline"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// phaseNames orders the report rows; "total" is the sum of the others.
var phaseNames = []string{"generate", "index-build", "select", "total"}

// graphSpec is one parsed -graphs entry.
type graphSpec struct {
	kind string // "pa" or "er"
	n    int
	deg  int
}

func (s graphSpec) String() string { return fmt.Sprintf("%s:%dx%d", s.kind, s.n, s.deg) }

// benchSafe renders the spec as a benchmark-name fragment.
func (s graphSpec) benchSafe() string { return fmt.Sprintf("%s%dx%d", s.kind, s.n, s.deg) }

func parseGraphSpec(in string) (graphSpec, error) {
	kind, rest, ok := strings.Cut(in, ":")
	if !ok {
		return graphSpec{}, fmt.Errorf("graph spec %q: want type:NxD", in)
	}
	if kind != "pa" && kind != "er" {
		return graphSpec{}, fmt.Errorf("graph spec %q: unknown type %q (pa, er)", in, kind)
	}
	ns, ds, ok := strings.Cut(rest, "x")
	if !ok {
		return graphSpec{}, fmt.Errorf("graph spec %q: want type:NxD", in)
	}
	n, err := strconv.Atoi(ns)
	if err != nil || n < 2 {
		return graphSpec{}, fmt.Errorf("graph spec %q: bad node count", in)
	}
	d, err := strconv.Atoi(ds)
	if err != nil || d < 1 {
		return graphSpec{}, fmt.Errorf("graph spec %q: bad degree", in)
	}
	return graphSpec{kind: kind, n: n, deg: d}, nil
}

func buildGraph(spec graphSpec, seed uint64) (*graph.Graph, error) {
	r := rng.New(seed)
	var g *graph.Graph
	var err error
	switch spec.kind {
	case "pa":
		g, err = graph.GenPreferentialAttachment(spec.n, spec.deg, false, r)
	case "er":
		g, err = graph.GenErdosRenyi(spec.n, int64(spec.n)*int64(spec.deg), r)
	default:
		return nil, fmt.Errorf("unknown graph kind %q", spec.kind)
	}
	if err != nil {
		return nil, err
	}
	g.AssignWC()
	return g, nil
}

func newGenerator(name string, g *graph.Graph) (rrset.Generator, error) {
	switch name {
	case "subsim":
		return rrset.NewSubsim(g), nil
	case "vanilla":
		return rrset.NewVanilla(g), nil
	case "bucketed":
		return rrset.NewSubsimBucketed(g, true), nil
	default:
		return nil, fmt.Errorf("unknown generator %q (subsim, vanilla, bucketed)", name)
	}
}

// cell is one matrix point: the median per-phase wall times of running
// the full pipeline (generate → delta CSR build → select) at
// one worker count.
type cell struct {
	Graph   string           `json:"graph"`
	Gen     string           `json:"gen"`
	Workers int              `json:"workers"`
	Trials  int              `json:"trials"`
	PhaseNS map[string]int64 `json:"phase_ns"`
	// Timeline is the last trial's execution-timeline digest: records
	// per phase, busy/covered/serial-gap ns, per-worker skew.
	Timeline *timeline.Summary `json:"timeline,omitempty"`
	// seeds fingerprints trial 0's selection for the worker-independence
	// assertion (not exported to JSON; the check either passes or aborts).
	seeds []int32
}

// point is one (W, T) sample of a phase's scaling curve.
type point struct {
	Workers    int     `json:"workers"`
	NS         int64   `json:"ns"`
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
}

// curve is one phase's scaling behaviour across the worker sweep.
type curve struct {
	Graph  string  `json:"graph"`
	Gen    string  `json:"gen"`
	Phase  string  `json:"phase"`
	T1NS   int64   `json:"t1_ns"`
	Points []point `json:"points"`
	// AmdahlSerialFrac is the least-squares serial fraction s of
	// T_W = T_1·(s + (1-s)/W) fitted over the W>1 points, clamped to
	// [0,1]; -1 when the sweep has no W>1 point to fit.
	AmdahlSerialFrac float64 `json:"amdahl_serial_frac"`
}

// resultDoc is the -json document.
type resultDoc struct {
	Schema        string  `json:"schema"`
	SchemaVersion int     `json:"schema_version"`
	Recorded      string  `json:"recorded"`
	GoVersion     string  `json:"go_version"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Caveat        string  `json:"caveat,omitempty"`
	Sets          int     `json:"sets"`
	Rounds        int     `json:"rounds"`
	K             int     `json:"k"`
	Trials        int     `json:"trials"`
	Cells         []cell  `json:"cells"`
	Curves        []curve `json:"curves"`
}

func main() {
	var (
		graphsFlag  = flag.String("graphs", "pa:20000x8", "comma-separated graph specs type:NxD (pa, er)")
		gensFlag    = flag.String("gens", "subsim", "comma-separated generators: subsim, vanilla, bucketed")
		workersFlag = flag.String("workers", "1,2,4,8", "comma-separated worker counts (must include 1)")
		trials      = flag.Int("trials", 3, "trials per cell (median wins)")
		sets        = flag.Int("sets", 20000, "RR sets generated per trial")
		rounds      = flag.Int("rounds", 4, "fill/build/select rounds per trial")
		k           = flag.Int("k", 50, "seeds selected per round")
		seed        = flag.Uint64("seed", 2020, "RNG seed")
		jsonPath    = flag.String("json", "", "write the matrix result JSON to this file")
		benchFile   = flag.String("bench-file", "", "record bench-style rows into this benchjson file")
		benchLabel  = flag.String("bench-label", "scale-matrix", "label for the -bench-file run")
		reportPath  = flag.String("report", "", "write an obs run report (one span per cell) to this file")
		tracePath   = flag.String("trace", "", "write the last cell's timeline as Chrome trace-event JSON (Perfetto)")
		flightDir   = flag.String("flight-dir", ".", "directory for diagnostic *.bundle directories (-flight-dir '' disables the flight recorder)")
		stallWindow = flag.Duration("stall-window", 0, "stall-watchdog window (0 = watchdog off)")
	)
	flag.Parse()
	if err := run(*graphsFlag, *gensFlag, *workersFlag, *trials, *sets, *rounds, *k, *seed,
		*jsonPath, *benchFile, *benchLabel, *reportPath, *tracePath, *flightDir, *stallWindow); err != nil {
		fmt.Fprintln(os.Stderr, "scalematrix:", err)
		os.Exit(1)
	}
}

func run(graphsFlag, gensFlag, workersFlag string, trials, sets, rounds, k int, seed uint64,
	jsonPath, benchFile, benchLabel, reportPath, tracePath, flightDir string, stallWindow time.Duration) error {
	var specs []graphSpec
	for _, s := range strings.Split(graphsFlag, ",") {
		spec, err := parseGraphSpec(strings.TrimSpace(s))
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	gens := strings.Split(gensFlag, ",")
	for i := range gens {
		gens[i] = strings.TrimSpace(gens[i])
	}
	var workerSweep []int
	for _, s := range strings.Split(workersFlag, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || w < 1 {
			return fmt.Errorf("bad -workers entry %q", s)
		}
		workerSweep = append(workerSweep, w)
	}
	sort.Ints(workerSweep)
	if workerSweep[0] != 1 {
		return fmt.Errorf("-workers must include 1 (the speedup baseline)")
	}
	if trials < 1 || sets < rounds || rounds < 1 || k < 1 {
		return fmt.Errorf("bad matrix shape: trials=%d sets=%d rounds=%d k=%d", trials, sets, rounds, k)
	}

	procs := runtime.GOMAXPROCS(0)
	caveat := ""
	if maxW := workerSweep[len(workerSweep)-1]; maxW > procs {
		caveat = fmt.Sprintf("recorded with GOMAXPROCS=%d < max workers=%d: W>%d rows measure goroutine-partitioning overhead on shared cores, NOT parallel speedup", procs, maxW, procs)
		fmt.Fprintf(os.Stderr,
			"scalematrix: WARNING: sweep asks for %d workers but GOMAXPROCS=%d\n"+
				"scalematrix: WARNING: oversubscribed rows measure partitioning overhead, NOT speedup\n"+
				"scalematrix: WARNING: all emitted artifacts are tagged with this caveat\n",
			maxW, procs)
	}

	matrixTr := obs.NewTracer()
	matrixTr.SetMeta("tool", "scalematrix")
	matrixTr.SetMeta("gomaxprocs", procs)
	matrixTr.SetMeta("workers", workersFlag)
	if caveat != "" {
		matrixTr.SetMeta("caveat", caveat)
	}
	// Flight recorder on the matrix-level tracer: a sweep that panics or
	// stalls deep into the matrix leaves a bundle with the per-cell span
	// journal instead of a bare stack trace. Per-cell tracers stay fresh
	// (see runCell); only the session-level black box is global.
	if flightDir != "" {
		fl := matrixTr.EnableFlight(obs.FlightConfig{
			Dir:         flightDir,
			Tool:        "scalematrix",
			StallWindow: stallWindow,
			OnBundle: func(path, reason string, err error) {
				if err != nil {
					fmt.Fprintf(os.Stderr, "scalematrix: flight bundle (%s): %v\n", reason, err)
					return
				}
				fmt.Fprintf(os.Stderr, "scalematrix: flight bundle (%s) written to %s\n", reason, path)
			},
		})
		defer fl.Close()
		defer fl.CapturePanic()
		stopSignals := fl.InstallSignalHandlers()
		defer stopSignals()
	}

	doc := resultDoc{
		Schema:        "subsim.scalematrix",
		SchemaVersion: 2,
		Recorded:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    procs,
		Caveat:        caveat,
		Sets:          sets,
		Rounds:        rounds,
		K:             k,
		Trials:        trials,
	}

	var traceSnap timeline.Snapshot
	for _, spec := range specs {
		g, err := buildGraph(spec, seed)
		if err != nil {
			return err
		}
		for _, genName := range gens {
			var baseline *cell
			for _, w := range workerSweep {
				span := matrixTr.Span(fmt.Sprintf("cell-%s-%s-W%d", spec, genName, w))
				c, snap, err := runCell(g, spec, genName, w, trials, sets, rounds, k, seed)
				if err != nil {
					return err
				}
				traceSnap = snap
				span.SetInt("workers", int64(w)).SetInt("total_ns", c.PhaseNS["total"])
				span.End()
				if w == 1 {
					baseline = &c
				} else if baseline != nil && !equalSeeds(baseline.seeds, c.seeds) {
					return fmt.Errorf("worker-independence violated: %s/%s W=%d selected different seeds than W=1",
						spec, genName, w)
				}
				doc.Cells = append(doc.Cells, c)
				fmt.Fprintf(os.Stderr, "scalematrix: %s %s W=%d done (total %s)\n",
					spec, genName, w, time.Duration(c.PhaseNS["total"]))
			}
			doc.Curves = append(doc.Curves, buildCurves(spec.String(), genName,
				cellsFor(doc.Cells, spec.String(), genName))...)
		}
	}

	printMarkdown(os.Stdout, &doc)

	if jsonPath != "" {
		if err := writeJSONFile(jsonPath, doc); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scalematrix: wrote %s\n", jsonPath)
	}
	if benchFile != "" {
		if err := recordBench(benchFile, benchLabel, caveat, &doc); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scalematrix: recorded run %q in %s\n", benchLabel, benchFile)
	}
	if reportPath != "" {
		f, err := os.Create(reportPath)
		if err != nil {
			return err
		}
		if err := matrixTr.Report().WriteJSON(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scalematrix: wrote report %s\n", reportPath)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := timeline.WriteTrace(f, traceSnap, nil); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scalematrix: wrote trace %s\n", tracePath)
	}
	return nil
}

// runCell executes trials full pipeline passes at one worker count and
// returns the median per-phase wall times plus the final trial's raw
// timeline snapshot (for -trace export). Every trial runs with a fresh
// tracer + timeline, so the cell's timeline digest reflects exactly one
// pipeline pass.
func runCell(g *graph.Graph, spec graphSpec, genName string,
	workers, trials, sets, rounds, k int, seed uint64) (cell, timeline.Snapshot, error) {
	c := cell{
		Graph:   spec.String(),
		Gen:     genName,
		Workers: workers,
		Trials:  trials,
		PhaseNS: make(map[string]int64, len(phaseNames)),
	}
	samples := make(map[string][]int64, len(phaseNames))
	var lastSnap timeline.Snapshot
	for trial := 0; trial < trials; trial++ {
		tr := obs.NewTracer()
		tr.EnableTimeline(0)
		m := tr.Metrics()
		gen, err := newGenerator(genName, g)
		if err != nil {
			return cell{}, timeline.Snapshot{}, err
		}
		b := im.NewInstrumentedBatcher(gen, seed, workers, m)
		idx := im.NewIndex(g.N(), nil, im.Options{Workers: workers}, m)

		perRound := sets / rounds
		var genNS, buildNS, selNS int64
		var seeds []int32
		for r := 0; r < rounds; r++ {
			cnt := perRound
			if r == rounds-1 {
				cnt = sets - perRound*(rounds-1)
			}
			t0 := time.Now()
			b.Fill(idx, cnt, nil)
			genNS += time.Since(t0).Nanoseconds()
			t0 = time.Now()
			idx.Degree(0) // forces the delta CSR rebuild
			buildNS += time.Since(t0).Nanoseconds()
			t0 = time.Now()
			res := idx.SelectSeeds(coverage.GreedyOptions{K: k})
			selNS += time.Since(t0).Nanoseconds()
			seeds = res.Seeds
		}
		samples["generate"] = append(samples["generate"], genNS)
		samples["index-build"] = append(samples["index-build"], buildNS)
		samples["select"] = append(samples["select"], selNS)
		samples["total"] = append(samples["total"], genNS+buildNS+selNS)
		if trial == 0 {
			c.seeds = seeds
		}
		if trial == trials-1 {
			lastSnap = tr.Timeline().Snapshot()
			sum := timeline.Summarize(lastSnap)
			c.Timeline = &sum
		}
	}
	for _, name := range phaseNames {
		c.PhaseNS[name] = medianInt64(samples[name])
	}
	return c, lastSnap, nil
}

func equalSeeds(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func medianInt64(v []int64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// cellsFor filters the accumulated cells down to one (graph, gen) pair,
// ascending by worker count.
func cellsFor(cells []cell, graphName, genName string) []cell {
	var out []cell
	for _, c := range cells {
		if c.Graph == graphName && c.Gen == genName {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Workers < out[j].Workers })
	return out
}

// buildCurves turns one (graph, gen) worker sweep into per-phase scaling
// curves with speedup, efficiency and the Amdahl fit.
func buildCurves(graphName, genName string, cells []cell) []curve {
	if len(cells) == 0 {
		return nil
	}
	var curves []curve
	for _, phase := range phaseNames {
		cv := curve{Graph: graphName, Gen: genName, Phase: phase, AmdahlSerialFrac: -1}
		t1 := cells[0].PhaseNS[phase] // cells ascend by W and include W=1
		cv.T1NS = t1
		for _, c := range cells {
			p := point{Workers: c.Workers, NS: c.PhaseNS[phase]}
			if t1 > 0 && p.NS > 0 {
				p.Speedup = float64(t1) / float64(p.NS)
				p.Efficiency = p.Speedup / float64(c.Workers)
			}
			cv.Points = append(cv.Points, p)
		}
		cv.AmdahlSerialFrac = amdahlFit(cv.Points, t1)
		curves = append(curves, cv)
	}
	return curves
}

// amdahlFit estimates the serial fraction s of Amdahl's law
// T_W = T_1·(s + (1-s)/W) by least squares: with x_W = 1 - 1/W and
// y_W = T_W/T_1 - 1/W the model is y = s·x, so s = Σxy / Σx² over the
// W>1 points. Clamped to [0,1]; -1 when no W>1 point (or T_1 = 0)
// leaves nothing to fit.
func amdahlFit(points []point, t1 int64) float64 {
	if t1 <= 0 {
		return -1
	}
	var sxx, sxy float64
	n := 0
	for _, p := range points {
		if p.Workers <= 1 {
			continue
		}
		x := 1 - 1/float64(p.Workers)
		y := float64(p.NS)/float64(t1) - 1/float64(p.Workers)
		sxx += x * x
		sxy += x * y
		n++
	}
	if n == 0 || sxx == 0 {
		return -1
	}
	s := sxy / sxx
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return s
}

// printMarkdown renders the per-phase scaling table, one row per
// (graph, gen, phase).
func printMarkdown(w *os.File, doc *resultDoc) {
	fmt.Fprintf(w, "### Scaling matrix (GOMAXPROCS=%d, %d sets, %d rounds, k=%d, median of %d)\n\n",
		doc.GOMAXPROCS, doc.Sets, doc.Rounds, doc.K, doc.Trials)
	if doc.Caveat != "" {
		fmt.Fprintf(w, "> **Caveat:** %s\n\n", doc.Caveat)
	}
	// Header: worker columns from the first curve (all share the sweep).
	if len(doc.Curves) == 0 {
		fmt.Fprintln(w, "(empty matrix)")
		return
	}
	fmt.Fprint(w, "| graph | generator | phase | T(W=1) |")
	for _, p := range doc.Curves[0].Points {
		if p.Workers == 1 {
			continue
		}
		fmt.Fprintf(w, " W=%d speedup (eff) |", p.Workers)
	}
	fmt.Fprintln(w, " Amdahl s |")
	fmt.Fprint(w, "|---|---|---|---|")
	for _, p := range doc.Curves[0].Points {
		if p.Workers == 1 {
			continue
		}
		fmt.Fprint(w, "---|")
	}
	fmt.Fprintln(w, "---|")
	for _, cv := range doc.Curves {
		fmt.Fprintf(w, "| %s | %s | %s | %s |", cv.Graph, cv.Gen, cv.Phase, time.Duration(cv.T1NS))
		for _, p := range cv.Points {
			if p.Workers == 1 {
				continue
			}
			fmt.Fprintf(w, " %.2fx (%.0f%%) |", p.Speedup, p.Efficiency*100)
		}
		if cv.AmdahlSerialFrac < 0 {
			fmt.Fprintln(w, " n/a |")
		} else {
			fmt.Fprintf(w, " %.3f |\n", cv.AmdahlSerialFrac)
		}
	}
}

func writeJSONFile(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// --- benchjson recording -------------------------------------------------
//
// The structs mirror cmd/benchjson's on-disk schema (schema 1) so
// scalematrix can record straight into BENCH_rrset.json without shelling
// out; benchjson -list/-compare read the result as usual.

type benchMetrics struct {
	NsOp     float64            `json:"ns_op"`
	BOp      float64            `json:"b_op,omitempty"`
	AllocsOp float64            `json:"allocs_op,omitempty"`
	Extra    map[string]float64 `json:"extra,omitempty"`
}

type benchRun struct {
	Label      string                  `json:"label"`
	Recorded   string                  `json:"recorded"`
	GoVersion  string                  `json:"go_version"`
	Caveat     string                  `json:"caveat,omitempty"`
	Benchmarks map[string]benchMetrics `json:"benchmarks"`
}

type benchJSONFile struct {
	Schema int        `json:"schema"`
	Runs   []benchRun `json:"runs"`
}

// benchName renders one matrix point as a benchmark row name, e.g.
// BenchmarkScaleMatrix_pa20000x8_subsim_generate_W4.
func benchName(graphSafe, gen, phase string, workers int) string {
	phase = strings.ReplaceAll(phase, "-", "")
	return fmt.Sprintf("BenchmarkScaleMatrix_%s_%s_%s_W%d", graphSafe, gen, phase, workers)
}

// recordBench writes the matrix into a benchjson file under label:
// one row per (graph, gen, phase, W) carrying ns plus speedup and
// efficiency extras, and one _Amdahl row per curve carrying the fitted
// serial fraction.
func recordBench(path, label, caveat string, doc *resultDoc) error {
	var f benchJSONFile
	raw, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		f.Schema = 1
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(raw, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}

	bms := make(map[string]benchMetrics)
	for _, cv := range doc.Curves {
		safe := strings.NewReplacer(":", "", "x", "x").Replace(cv.Graph)
		for _, p := range cv.Points {
			m := benchMetrics{NsOp: float64(p.NS)}
			if p.Workers > 1 {
				m.Extra = map[string]float64{
					"speedup":    p.Speedup,
					"efficiency": p.Efficiency,
				}
			}
			bms[benchName(safe, cv.Gen, cv.Phase, p.Workers)] = m
		}
		if cv.AmdahlSerialFrac >= 0 {
			bms[benchName(safe, cv.Gen, cv.Phase, 0)+"_Amdahl"] = benchMetrics{
				NsOp:  float64(cv.T1NS),
				Extra: map[string]float64{"amdahl_serial_frac": cv.AmdahlSerialFrac},
			}
		}
	}

	run := benchRun{
		Label:      label,
		Recorded:   doc.Recorded,
		GoVersion:  doc.GoVersion,
		Caveat:     caveat,
		Benchmarks: bms,
	}
	replaced := false
	for i := range f.Runs {
		if f.Runs[i].Label == label {
			f.Runs[i] = run
			replaced = true
			break
		}
	}
	if !replaced {
		f.Runs = append(f.Runs, run)
	}
	f.Schema = 1
	return writeJSONFile(path, f)
}
