// Command imbench regenerates the paper's evaluation tables and figures
// (Section 7) on synthetic stand-in datasets.
//
// Usage:
//
//	imbench [flags]
//
// Flags:
//
//	-exp     comma-separated experiment ids (table2,fig1,...,fig7) or "all"
//	-scale   dataset size multiplier (default 1.0; 0.1 for a fast pass)
//	-reps    repetitions per timing cell (default 3)
//	-eps     approximation parameter ε (default 0.1)
//	-seed    RNG seed (default 2020)
//	-workers RR-generation parallelism (default GOMAXPROCS)
//	-bound   sample-complexity analysis: "imm" (worst-case) or "tight"
//	-k       comma-separated k sweep for fig1/fig4/fig5
//	-quick   tiny datasets and budgets (smoke test, seconds)
//	-trace   write a schema-versioned JSON run report covering every
//	         experiment (one top-level span per experiment id)
//	-metrics dump Prometheus-style RR metrics to stderr after the run
//	-log     emit structured run events on stderr: "text" or "json"
//	-serve   serve the live telemetry plane on this address (e.g. :6060):
//	         /metrics, /healthz, /readyz, /progress, /report, /debug/*
//
// Example:
//
//	imbench -exp fig1,fig4 -scale 0.5 -reps 3
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"subsim"
	"subsim/internal/bench"
	"subsim/internal/obs"
	"subsim/internal/obs/flight"
	"subsim/internal/obs/serve"
)

func main() {
	exp := flag.String("exp", "all", "experiments to run (comma separated ids, or 'all')")
	scale := flag.Float64("scale", 1.0, "dataset size multiplier")
	reps := flag.Int("reps", 3, "repetitions per timing cell")
	eps := flag.Float64("eps", 0.1, "approximation parameter epsilon")
	seed := flag.Uint64("seed", 2020, "random seed")
	workers := flag.Int("workers", 0, "RR generation workers (0 = GOMAXPROCS)")
	ks := flag.String("k", "", "comma-separated k sweep (overrides default)")
	bound := flag.String("bound", "imm", "sample-complexity bound: imm or tight")
	quick := flag.Bool("quick", false, "tiny smoke-test configuration")
	tracePath := flag.String("trace", "", "write the JSON run report to this file")
	metrics := flag.Bool("metrics", false, "dump Prometheus-style metrics to stderr")
	logFmt := flag.String("log", "", "structured run events on stderr: text or json")
	serveAddr := flag.String("serve", "", "serve the live telemetry plane on this address")
	flightOn := flag.Bool("flight", true, "enable the flight recorder (journal, history, crash bundles)")
	flightDir := flag.String("flight-dir", ".", "directory for diagnostic *.bundle directories")
	stallWindow := flag.Duration("stall-window", 0, "stall-watchdog window (0 = watchdog off)")
	flag.Parse()

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	cfg.Scale = *scale
	cfg.Reps = *reps
	cfg.Eps = *eps
	cfg.Seed = *seed
	cfg.Workers = *workers
	bnd, err := subsim.ParseBound(*bound)
	if err != nil {
		fmt.Fprintf(os.Stderr, "imbench: %v\n", err)
		os.Exit(2)
	}
	cfg.Bound = bnd
	// Oversubscribed workers measure goroutine-partitioning overhead, not
	// parallel speedup — the trap that poisoned the early W>1 rows of
	// BENCH_rrset.json (see their "caveat" fields). Shout about it so the
	// numbers can't masquerade as speedups.
	if p := runtime.GOMAXPROCS(0); *workers > p {
		fmt.Fprintf(os.Stderr,
			"imbench: WARNING: -workers=%d exceeds GOMAXPROCS=%d — timings will measure\n"+
				"imbench: WARNING: partitioning overhead on shared cores, NOT parallel speedup\n",
			*workers, p)
	}
	if *ks != "" {
		var sweep []int
		for _, f := range strings.Split(*ks, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || k < 1 {
				fmt.Fprintf(os.Stderr, "imbench: bad -k entry %q\n", f)
				os.Exit(2)
			}
			sweep = append(sweep, k)
		}
		cfg.Ks = sweep
	}

	ids := bench.ExperimentOrder
	if *exp != "all" {
		ids = nil
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if bench.Experiments[id] == nil {
				fmt.Fprintf(os.Stderr, "imbench: unknown experiment %q (known: %s)\n",
					id, strings.Join(bench.ExperimentOrder, ", "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	if *logFmt != "" {
		cfg.Logger = obs.NewLoggerWriter(os.Stderr, *logFmt, nil)
	}
	var tr *obs.Tracer
	if *tracePath != "" || *metrics || *serveAddr != "" || *flightOn {
		tr = obs.NewTracer()
		tr.EnableTimeline(0)
		tr.SetMeta("tool", "imbench")
		if p := runtime.GOMAXPROCS(0); *workers > p {
			tr.SetMeta("caveat", fmt.Sprintf(
				"workers=%d oversubscribes GOMAXPROCS=%d: timings measure partitioning overhead, not speedup",
				*workers, p))
		}
		tr.SetMeta("experiments", strings.Join(ids, ","))
		tr.SetMeta("scale", *scale)
		tr.SetMeta("eps", *eps)
		tr.SetMeta("seed", *seed)
		tr.SetMeta("bound", bnd.String())
		cfg.Tracer = tr
	}
	// Flight recorder: a benchmark sweep that hangs or crashes after
	// minutes of warm-up leaves a post-mortem bundle instead of nothing.
	if *flightOn {
		fl := tr.EnableFlight(obs.FlightConfig{
			Dir:         *flightDir,
			Tool:        "imbench",
			StallWindow: *stallWindow,
			OnBundle: func(path, reason string, err error) {
				if err != nil {
					fmt.Fprintf(os.Stderr, "imbench: flight bundle (%s): %v\n", reason, err)
					return
				}
				fmt.Fprintf(os.Stderr, "imbench: flight bundle (%s) written to %s\n", reason, path)
			},
		})
		defer fl.Close()
		defer fl.CapturePanic()
		stopSignals := fl.InstallSignalHandlers()
		defer stopSignals()
		cfg.Logger = cfg.Logger.WithFlight(fl.Journal().Stream(flight.StreamRun))
	}
	var plane *serve.Plane
	if *serveAddr != "" {
		plane = serve.New(tr)
		addr, err := plane.Start(*serveAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imbench: %v\n", err)
			os.Exit(1)
		}
		defer func() { _ = plane.Close() }()
		plane.SetGraphLoaded(true) // imbench synthesises graphs per experiment
		fmt.Fprintf(os.Stderr, "imbench: serving telemetry on %s (/metrics /healthz /readyz /progress /report /debug)\n", addr)
	}

	for _, id := range ids {
		span := tr.Span(id)
		if plane != nil {
			plane.RunStarted()
		}
		_, err := bench.Experiments[id](cfg, os.Stdout)
		span.End()
		if plane != nil {
			plane.RunFinished()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "imbench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}

	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "imbench: %v\n", err)
			os.Exit(1)
		}
		if err := tr.Report().WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "imbench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "imbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote trace %s\n", *tracePath)
	}
	if *metrics {
		if err := tr.Metrics().WritePrometheus(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "imbench: %v\n", err)
		}
	}
}
