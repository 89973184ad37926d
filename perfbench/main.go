// Command perfbench is the end-to-end benchmark of the subsim module.
//
// It runs subsim.Maximize with default Options on one fixed workload
// (see workload.go and NOTES.md), generated from --seed, for --seconds,
// and prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (set-up time, solve
// time at nproc and at one worker, RR sets, certified approximation,
// peak RSS, pass rate), measured with all tracing off. With --trace 1
// the run replays the OPIM-C or HIST doubling loop from outside the
// program, through each layer's public functions, times every call and
// reports per-layer metrics; the replay must reproduce Maximize's result
// exactly or the run fails.
//
// Build and run it from the repository root with perfbench/run.sh.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"subsim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	w       workload
	seed    uint64
	scale   int
	seconds time.Duration
	trace   bool
	dir     string
	commit  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == childFlag {
		return childMain(args, stdout, stderr)
	}
	fs := newFlags(stderr)
	seconds := fs.Float64("seconds", 10, "measurement time")
	trace := fs.Int("trace", 0, "1 replays the algorithm loop and reports per-layer metrics")
	dir := fs.String("workdir", ".bench_build/perfbench", "directory for graph files and fingerprints")
	commit := fs.String("commit", "", "git revision of the code, for the host tag")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := fs.workload()
	if err == nil && (*trace < 0 || *trace > 1 || *seconds <= 0) {
		err = errors.New("need --trace 0|1 and --seconds > 0")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := config{w: w, seed: *fs.seed, scale: *fs.scale, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, dir: *dir, commit: *commit}
	res, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// flags holds the flags a run and its child processes share.
type flags struct {
	*flag.FlagSet
	name  *string
	seed  *uint64
	scale *int
}

func newFlags(stderr io.Writer) *flags {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &flags{
		FlagSet: fs,
		name:    fs.String("workload", "", "workload name"),
		seed:    fs.Uint64("seed", 1, "workload seed: graph and Maximize seed"),
		scale:   fs.Int("scale", 1, "divide the workload's size by this factor (smoke runs)"),
	}
}

// workload resolves --workload and --scale.
func (f *flags) workload() (workload, error) {
	w, err := findWorkload(*f.name)
	if err != nil {
		return w, err
	}
	if *f.scale < 1 {
		return w, errors.New("need --scale >= 1")
	}
	if *f.scale > 1 {
		w = w.scaled(*f.scale)
	}
	return w, nil
}

// bench prepares the workload, measures it and returns the result line.
func bench(cfg config, out io.Writer) (*result, error) {
	w := cfg.w
	fmt.Fprintln(out, hostTag(cfg.commit))
	fmt.Fprintf(out, "workload: %s alg=%v graph=%s n=%d m=%d deg=%d wcv=%g k=%d eps=%g seed=%d trace=%t\n",
		w.name, w.alg, w.graph, w.n, w.m, w.deg, w.wcv, w.k, w.eps, cfg.seed, cfg.trace)
	path, fp, err := prepareGraph(w, cfg.seed, cfg.dir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, "graph:", fp)
	if err := verifyLoad(path, fp); err != nil {
		return nil, err
	}

	m := &measurement{cfg: cfg, n: fp.N, out: out, workers: runtime.NumCPU()}
	if cfg.trace {
		err = m.traced(path)
	} else {
		err = m.endToEnd(path)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "fail_rate: %d/%d = %g ratio\n", m.failed, m.attempted, float64(m.failed)/float64(m.attempted))
	for _, p := range m.problems {
		fmt.Fprintln(out, "FAILED:", p)
	}
	if m.ref == nil {
		return nil, errors.New("no solve passed its checks: nothing to report")
	}
	fmt.Fprintf(out, "result: rounds=%d rr_sets=%d approx=%.6f lower=%.3f upper=%.3f sentinels=%d seeds[:8]=%v\n",
		m.ref.Rounds, m.ref.RRStats.Sets, m.ref.Approx, m.ref.LowerBound, m.ref.UpperBound, m.ref.SentinelSize, head(m.ref.Seeds))
	res := &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: m.metrics}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value (%v); %d of %d checks failed", k, v.Value, m.failed, m.attempted)
		}
	}
	return res, nil
}

// setupOnce loads the workload's graph file, assigns its weights and
// builds its RR generator, timing each step in seconds.
func setupOnce(w workload, path string) (g *subsim.Graph, load, weights, prep float64, err error) {
	t0 := time.Now()
	g, err = subsim.LoadGraph(path)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	t1 := time.Now()
	w.assignWeights(g)
	t2 := time.Now()
	subsim.NewRRGenerator(g, subsim.GenSubsim)
	t3 := time.Now()
	return g, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), nil
}

// verifyLoad checks that the graph file loads back to the fingerprint
// it was written with.
func verifyLoad(path string, fp fingerprint) error {
	g, err := subsim.LoadGraph(path)
	if err != nil {
		return err
	}
	got, err := fingerprintOf(g, nil)
	if err != nil {
		return err
	}
	if got != fp {
		return fmt.Errorf("loaded graph %s does not match its fingerprint %s", got, fp)
	}
	return nil
}

// measurement carries one run's state: the loaded graph, the reference
// result every later solve must equal, and the correctness tally.
type measurement struct {
	cfg     config
	n       int           // node count of the workload graph
	g       *subsim.Graph // the loaded graph, for the in-process traced run
	out     io.Writer
	workers int

	ref       *subsim.Result
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
}

func (m *measurement) options(workers int, tracer *subsim.Tracer) subsim.Options {
	return subsim.Options{K: m.cfg.w.k, Eps: m.cfg.w.eps, Seed: m.cfg.seed, Workers: workers, Tracer: tracer}
}

// solve runs one in-process Maximize for the traced run and checks its
// result; ok is false when the run failed.
func (m *measurement) solve(workers int, tracer *subsim.Tracer) (secs float64, ok bool) {
	runtime.GC()
	start := time.Now()
	res, err := subsim.Maximize(m.g, m.cfg.w.alg, m.options(workers, tracer))
	secs = time.Since(start).Seconds()
	m.attempted++
	if err != nil {
		m.fail(fmt.Sprintf("Maximize at W=%d: %v", workers, err))
		return 0, false
	}
	return secs, m.check(fmt.Sprintf("Maximize at W=%d", workers), res)
}

// check applies the correctness checks to res and requires it to equal
// the run's reference result, the first result that passed them.
func (m *measurement) check(what string, res *subsim.Result) bool {
	if p := validResult(m.cfg.w, m.n, res); p != "" {
		m.fail(what + ": " + p)
		return false
	}
	if m.ref == nil {
		m.ref = res
		return true
	}
	if d := diffResults(m.ref, res); d != "" {
		m.fail(what + ": differs from the first solve: " + d)
		return false
	}
	return true
}

func (m *measurement) fail(p string) {
	m.failed++
	if len(m.problems) < 20 {
		m.problems = append(m.problems, p)
	}
}

// validResult checks one result on its own: K distinct in-range seeds,
// LowerBound <= UpperBound and a certified ratio above 1-1/e-eps.
func validResult(w workload, n int, res *subsim.Result) string {
	if len(res.Seeds) != w.k {
		return fmt.Sprintf("%d seeds, want %d", len(res.Seeds), w.k)
	}
	seen := make(map[int32]bool, len(res.Seeds))
	for _, s := range res.Seeds {
		if s < 0 || int(s) >= n {
			return fmt.Sprintf("seed %d out of range [0,%d)", s, n)
		}
		if seen[s] {
			return fmt.Sprintf("seed %d selected twice", s)
		}
		seen[s] = true
	}
	if !(res.LowerBound <= res.UpperBound) {
		return fmt.Sprintf("LowerBound %v > UpperBound %v", res.LowerBound, res.UpperBound)
	}
	if target := 1 - 1/math.E - w.eps; !(res.Approx > target) {
		return fmt.Sprintf("Approx %v not above 1-1/e-eps = %v", res.Approx, target)
	}
	return ""
}

// diffResults reports the first deterministic field in which a and b
// differ, comparing floats bit for bit.
func diffResults(a, b *subsim.Result) string {
	switch {
	case !slices.Equal(a.Seeds, b.Seeds):
		i := 0
		for i < len(a.Seeds) && i < len(b.Seeds) && a.Seeds[i] == b.Seeds[i] {
			i++
		}
		return fmt.Sprintf("Seeds differ from position %d (%d vs %d seeds)", i, len(a.Seeds), len(b.Seeds))
	case math.Float64bits(a.LowerBound) != math.Float64bits(b.LowerBound):
		return fmt.Sprintf("LowerBound %v vs %v", a.LowerBound, b.LowerBound)
	case math.Float64bits(a.UpperBound) != math.Float64bits(b.UpperBound):
		return fmt.Sprintf("UpperBound %v vs %v", a.UpperBound, b.UpperBound)
	case a.Rounds != b.Rounds:
		return fmt.Sprintf("Rounds %d vs %d", a.Rounds, b.Rounds)
	case a.RRStats != b.RRStats:
		return fmt.Sprintf("RRStats %+v vs %+v", a.RRStats, b.RRStats)
	case math.Float64bits(a.Approx) != math.Float64bits(b.Approx):
		return fmt.Sprintf("Approx %v vs %v", a.Approx, b.Approx)
	case math.Float64bits(a.Influence) != math.Float64bits(b.Influence):
		return fmt.Sprintf("Influence %v vs %v", a.Influence, b.Influence)
	case a.SentinelRR != b.SentinelRR || a.SentinelSize != b.SentinelSize:
		return fmt.Sprintf("sentinel phase %d sets/%d nodes vs %d/%d", a.SentinelRR, a.SentinelSize, b.SentinelRR, b.SentinelSize)
	}
	return ""
}

func head(s []int32) []int32 {
	if len(s) > 8 {
		return s[:8]
	}
	return s
}
