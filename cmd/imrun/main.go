// Command imrun runs one influence-maximization algorithm on a graph
// file and reports the seed set, certified bounds, cost accounting, and
// an independent forward Monte-Carlo estimate of the seed set's spread.
//
// Usage:
//
//	imrun -graph graph.bin -alg hist+subsim -k 100 -eps 0.1
//
// Flags:
//
//	-graph   input graph path (from graphgen; text or .bin)
//	-alg     imm | ssa | opimc | subsim | hist | hist+subsim
//	-k       seed-set size
//	-eps     approximation parameter ε
//	-seed    RNG seed
//	-workers RR-generation parallelism (0 = GOMAXPROCS)
//	-bound   sample-complexity analysis capping θ: imm (worst-case
//	         IMM/OPIM-C constants, default) or tight (stop at the smaller
//	         Sadeh-Cohen-Kaplan-style tightened budget); both budgets are
//	         reported either way
//	-mc      forward simulations for the final spread estimate (0 = skip)
//	-lt      run under the Linear Threshold model (imm/ssa/opimc only)
//	-repeat  run the algorithm this many times (1 = once; higher values
//	         exercise the live telemetry plane on long runs)
//	-out     write the seed set to this file (one id per line)
//	-trace   write the schema-versioned JSON run report to this file
//	-metrics dump Prometheus-style metrics to stderr after the run
//	-json    emit the full Result plus run report as one JSON object
//	-log     emit structured run events on stderr: "text" or "json"
//	-serve   serve the live telemetry plane on this address (e.g. :6060):
//	         /metrics, /healthz, /readyz, /progress, /report, /timeline,
//	         /trace (Perfetto-loadable trace-event export), /events,
//	         /debug/bundle, /debug/*
//	-flight  always-on flight recorder: black-box event journal,
//	         runtime-metrics history, and diagnostic bundles on panic,
//	         SIGQUIT/SIGUSR1, stall, or GET /debug/bundle (default on;
//	         -flight=false turns the black box off)
//	-flight-dir    directory for *.bundle diagnostic bundles (default .)
//	-stall-window  arm the stall watchdog: a bundle is written when an
//	         active phase makes no progress for this long (0 = off)
//	-flight-selftest  force a failure to prove the recorder end to end:
//	         "panic" (crash with a panic bundle, nonzero exit) or "stall"
//	         (hold a phase idle until the watchdog writes a bundle)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"subsim"
	"subsim/internal/obs"
	"subsim/internal/obs/flight"
	"subsim/internal/obs/serve"
	"subsim/internal/seedio"
)

var algByName = map[string]subsim.Algorithm{
	"imm":         subsim.AlgIMM,
	"ssa":         subsim.AlgSSA,
	"opimc":       subsim.AlgOPIMC,
	"subsim":      subsim.AlgSUBSIM,
	"hist":        subsim.AlgHIST,
	"hist+subsim": subsim.AlgHISTSubsim,
}

// jsonOutput is the -json document: the run parameters, the full Result
// (whose Report field carries the span tree and histograms), and the
// optional forward-MC spread.
type jsonOutput struct {
	Graph struct {
		Path  string `json:"path"`
		N     int    `json:"n"`
		M     int64  `json:"m"`
		Model string `json:"model"`
	} `json:"graph"`
	Algorithm string         `json:"algorithm"`
	K         int            `json:"k"`
	Eps       float64        `json:"eps"`
	Seed      uint64         `json:"seed"`
	MCSpread  *float64       `json:"mc_spread,omitempty"`
	MCSamples int            `json:"mc_samples,omitempty"`
	Result    *subsim.Result `json:"result"`
}

func main() {
	graphPath := flag.String("graph", "", "input graph path")
	algName := flag.String("alg", "subsim", "algorithm: imm, ssa, opimc, subsim, hist, hist+subsim")
	k := flag.Int("k", 50, "seed set size")
	eps := flag.Float64("eps", 0.1, "approximation parameter epsilon")
	seed := flag.Uint64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "RR generation workers (0 = GOMAXPROCS)")
	bound := flag.String("bound", "imm", "sample-complexity bound: imm or tight")
	mc := flag.Int("mc", 10000, "forward simulations for spread estimate (0 = skip)")
	lt := flag.Bool("lt", false, "use the Linear Threshold model")
	repeat := flag.Int("repeat", 1, "run the algorithm this many times")
	out := flag.String("out", "", "write the seed set to this file (one id per line)")
	tracePath := flag.String("trace", "", "write the JSON run report to this file")
	metrics := flag.Bool("metrics", false, "dump Prometheus-style metrics to stderr")
	jsonOut := flag.Bool("json", false, "emit Result + run report as one JSON object on stdout")
	logFmt := flag.String("log", "", "structured run events on stderr: text or json")
	serveAddr := flag.String("serve", "", "serve the live telemetry plane on this address")
	flightOn := flag.Bool("flight", true, "enable the flight recorder (journal, history, crash bundles)")
	flightDir := flag.String("flight-dir", ".", "directory for diagnostic *.bundle directories")
	stallWindow := flag.Duration("stall-window", 0, "stall-watchdog window (0 = watchdog off)")
	flightSelftest := flag.String("flight-selftest", "", "force a recorder exercise: panic or stall")
	flag.Parse()

	switch *flightSelftest {
	case "", "panic", "stall":
	default:
		fmt.Fprintf(os.Stderr, "imrun: unknown -flight-selftest %q (want panic or stall)\n", *flightSelftest)
		os.Exit(2)
	}
	if *flightSelftest != "" && !*flightOn {
		fmt.Fprintln(os.Stderr, "imrun: -flight-selftest needs the flight recorder (-flight)")
		os.Exit(2)
	}
	if *graphPath == "" && *flightSelftest == "" {
		fmt.Fprintln(os.Stderr, "imrun: -graph is required (generate one with graphgen)")
		os.Exit(2)
	}
	alg, ok := algByName[strings.ToLower(*algName)]
	if !ok {
		fmt.Fprintf(os.Stderr, "imrun: unknown -alg %q\n", *algName)
		os.Exit(2)
	}
	if *repeat < 1 {
		*repeat = 1
	}

	bnd, err := subsim.ParseBound(*bound)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imrun: %v\n", err)
		os.Exit(2)
	}

	opt := subsim.Options{K: *k, Eps: *eps, Seed: *seed, Workers: *workers, Bound: bnd}
	if *logFmt != "" {
		opt.Logger = subsim.NewLogger(os.Stderr, *logFmt)
	}

	// Any observability consumer turns the tracer on — including the
	// flight recorder, which is on by default: the black box records
	// whether or not anything is watching. A nil tracer costs nothing
	// otherwise (-flight=false with no other consumer).
	var tr *subsim.Tracer
	if *tracePath != "" || *metrics || *jsonOut || *serveAddr != "" || *flightOn {
		tr = subsim.NewTracer()
		// The execution timeline powers /trace + /timeline on the plane and
		// the timeline summary in the run report; recording costs a few
		// atomics per RR set, so it simply rides along whenever tracing is on.
		tr.EnableTimeline(0)
		tr.SetMeta("algorithm", alg.String())
		tr.SetMeta("graph", *graphPath)
		tr.SetMeta("k", *k)
		tr.SetMeta("eps", *eps)
		tr.SetMeta("seed", *seed)
		tr.SetMeta("bound", bnd.String())
		opt.Tracer = tr
	}

	// Flight recorder: journal + metrics history always, watchdog when a
	// stall window is armed, bundles on panic / signal / stall / HTTP.
	var fl *obs.Flight
	if *flightOn {
		window := *stallWindow
		if *flightSelftest == "stall" && window <= 0 {
			window = 250 * time.Millisecond
		}
		stallBundle := make(chan string, 1)
		fl = tr.EnableFlight(obs.FlightConfig{
			Dir:         *flightDir,
			Tool:        "imrun",
			StallWindow: window,
			OnBundle: func(path, reason string, err error) {
				if err != nil {
					fmt.Fprintf(os.Stderr, "imrun: flight bundle (%s): %v\n", reason, err)
					return
				}
				fmt.Fprintf(os.Stderr, "imrun: flight bundle (%s) written to %s\n", reason, path)
				if reason == "stall" {
					select {
					case stallBundle <- path:
					default:
					}
				}
			},
		})
		defer fl.Close()
		// LIFO: on a panic CapturePanic writes the bundle first, then
		// Close stops the background goroutines while the value unwinds.
		defer fl.CapturePanic()
		stopSignals := fl.InstallSignalHandlers()
		defer stopSignals()
		// Mirror run lifecycle events into the journal even when -log is
		// off; with -log on, the same logger feeds both sinks.
		opt.Logger = opt.Logger.WithFlight(fl.Journal().Stream(flight.StreamRun))

		if *flightSelftest != "" {
			flightSelftestRun(tr, fl, *flightSelftest, window, stallBundle)
		}
	}

	// The telemetry plane serves /metrics, /healthz, /readyz, /progress,
	// /report and /debug/* off one mux; it only reads the tracer's atomic
	// live paths, so scraping never perturbs the run.
	var plane *serve.Plane
	if *serveAddr != "" {
		plane = serve.New(tr)
		addr, err := plane.Start(*serveAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imrun: %v\n", err)
			os.Exit(1)
		}
		defer func() { _ = plane.Close() }()
		fmt.Fprintf(os.Stderr, "imrun: serving telemetry on %s (/metrics /healthz /readyz /progress /report /timeline /trace /debug)\n", addr)
	}

	g, err := subsim.LoadGraph(*graphPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imrun: %v\n", err)
		os.Exit(1)
	}
	if tr != nil {
		tr.SetMeta("graph_n", g.N())
		tr.SetMeta("graph_m", g.M())
	}
	if plane != nil {
		plane.SetGraphLoaded(true)
	}

	var res *subsim.Result
	for rep := 0; rep < *repeat; rep++ {
		if plane != nil {
			plane.RunStarted()
		}
		if *lt {
			g.AssignLT()
			res, err = subsim.MaximizeWith(subsim.NewRRGenerator(g, subsim.GenLT), alg, opt)
		} else {
			res, err = subsim.Maximize(g, alg, opt)
		}
		if plane != nil {
			plane.RunFinished()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "imrun: %v\n", err)
			os.Exit(1)
		}
	}

	var spread *float64
	if *mc > 0 {
		model := subsim.IC
		if *lt {
			model = subsim.LT
		}
		s := subsim.EstimateInfluence(g, res.Seeds, *mc, model, *seed)
		spread = &s
	}

	if *jsonOut {
		doc := jsonOutput{Algorithm: alg.String(), K: *k, Eps: *eps, Seed: *seed, Result: res}
		doc.Graph.Path = *graphPath
		doc.Graph.N = g.N()
		doc.Graph.M = g.M()
		doc.Graph.Model = g.Model().String()
		if spread != nil {
			doc.MCSpread = spread
			doc.MCSamples = *mc
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(os.Stderr, "imrun: %v\n", err)
			os.Exit(1)
		}
	} else {
		printHuman(g, alg, res, *k, *eps, spread, *mc)
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imrun: %v\n", err)
			os.Exit(1)
		}
		if err := res.Report.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "imrun: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "imrun: %v\n", err)
			os.Exit(1)
		}
		if !*jsonOut {
			fmt.Printf("wrote trace %s\n", *tracePath)
		}
	}
	if *metrics {
		if err := tr.Metrics().WritePrometheus(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "imrun: %v\n", err)
		}
	}

	if *out != "" {
		if err := seedio.WriteFile(*out, res.Seeds); err != nil {
			fmt.Fprintf(os.Stderr, "imrun: %v\n", err)
			os.Exit(1)
		}
		if !*jsonOut {
			fmt.Printf("wrote %s\n", *out)
		}
	}
}

// flightSelftestRun forces a recorder-visible failure so operators (and
// make flight-smoke) can prove the black box end to end without waiting
// for a real incident. "panic" crashes through the deferred CapturePanic
// (panic bundle on disk, nonzero exit); "stall" holds a span open with
// no progress until the watchdog fires and writes a stall bundle, then
// exits 0. Never returns.
func flightSelftestRun(tr *subsim.Tracer, fl *obs.Flight, mode string, window time.Duration, stallBundle <-chan string) {
	sp := tr.Span("flight-selftest")
	switch mode {
	case "panic":
		panic("flight selftest: forced panic")
	case "stall":
		// The open span marks the phase active; emitting nothing further
		// starves the watchdog's progress signal.
		select {
		case path := <-stallBundle:
			sp.End()
			fmt.Printf("flight selftest: stall bundle %s\n", path)
			fl.Close()
			os.Exit(0)
		case <-time.After(20*window + 10*time.Second):
			sp.End()
			fmt.Fprintln(os.Stderr, "imrun: flight selftest: watchdog never fired")
			fl.Close()
			os.Exit(1)
		}
	}
	panic("unreachable")
}

func printHuman(g *subsim.Graph, alg subsim.Algorithm, res *subsim.Result, k int, eps float64, spread *float64, mc int) {
	fmt.Printf("graph: n=%d m=%d model=%s\n", g.N(), g.M(), g.Model())
	fmt.Printf("algorithm: %s  k=%d  eps=%g\n", alg, k, eps)
	fmt.Printf("elapsed: %v  rounds=%d\n", res.Elapsed, res.Rounds)
	fmt.Printf("rr sets: %d (avg size %.1f, %d edge examinations",
		res.RRStats.Sets, res.RRStats.AvgSize(), res.RRStats.EdgesExamined)
	if res.RRStats.SentinelHits > 0 {
		fmt.Printf(", %d sentinel hits", res.RRStats.SentinelHits)
	}
	fmt.Println(")")
	if res.SentinelSize > 0 {
		fmt.Printf("sentinels: %d nodes, %d sentinel-phase RR sets\n", res.SentinelSize, res.SentinelRR)
	}
	// Phase timings from the span tree, aggregated by span name in
	// first-seen order ("where did the time go").
	if aggs := res.Report.AggregateSpans(); len(aggs) > 0 {
		fmt.Printf("phases:")
		for _, a := range aggs {
			if a.Count > 1 {
				fmt.Printf("  %s %v (x%d)", a.Name, a.Total().Round(10e3), a.Count)
			} else {
				fmt.Printf("  %s %v", a.Name, a.Total().Round(10e3))
			}
		}
		fmt.Println()
	}
	if res.ThetaWorstCase > 0 {
		fmt.Printf("theta budget: worst-case %d, tightened %d", res.ThetaWorstCase, res.ThetaTight)
		if saved := res.ThetaWorstCase - res.ThetaTight; saved > 0 {
			fmt.Printf(" (%.1f%% smaller)", 100*float64(saved)/float64(res.ThetaWorstCase))
		}
		fmt.Println()
	}
	fmt.Printf("influence estimate: %.1f", res.Influence)
	if res.UpperBound > 0 {
		fmt.Printf("  certified: [%.1f, %.1f] (ratio %.3f)", res.LowerBound, res.UpperBound, res.Approx)
	}
	fmt.Println()
	if spread != nil {
		fmt.Printf("forward MC spread (%d samples): %.1f\n", mc, *spread)
	}
	fmt.Printf("seeds: %v\n", res.Seeds)
}
