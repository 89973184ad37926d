package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"subsim"
)

// childFlag, as the first argument, makes the binary a child that
// performs one set-up and one solve; see runChild.
const childFlag = "--child-workers"

// childOut is the line a child prints.
type childOut struct {
	SetupS float64        `json:"setup_s"`
	SolveS float64        `json:"solve_s"`
	RSS    int64          `json:"rss_bytes"`
	Result *subsim.Result `json:"result"`
}

// runChild is what a user pays for one solve in a fresh process:
// set-up (LoadGraph, weights, NewRRGenerator), then one Maximize with
// the given worker count, untraced. It prints a childOut line.
func runChild(w workload, seed uint64, path string, workers int, stdout io.Writer) error {
	g, load, weights, prep, err := setupOnce(w, path)
	if err != nil {
		return err
	}
	opt := subsim.Options{K: w.k, Eps: w.eps, Seed: seed, Workers: workers}
	var res *subsim.Result
	var secs float64
	var solveErr error
	rss, err := peakRSS(func() {
		start := time.Now()
		res, solveErr = subsim.Maximize(g, w.alg, opt)
		secs = time.Since(start).Seconds()
	})
	if solveErr != nil {
		return solveErr
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(childOut{SetupS: load + weights + prep, SolveS: secs, RSS: rss, Result: res})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// endToEnd runs untraced solves, each with its set-up in a fresh child
// process and one at a time, until the measurement time is up: three at
// W=nproc for each one at W=1. It reports the end-to-end metrics.
//
// A fresh process per solve is deliberate. Whether two workers' hot
// per-worker state shares a cache line depends on where the heap puts
// it, which is fixed by the process's allocation history: in one
// long-lived process the W=nproc time sticks to one layout for many
// solves, so a run would measure the layout it drew. Across fresh
// processes the layouts vary independently, as they do for users. The
// W=nproc time is then a mix of a fast and a slow mode, often near half
// and half, so solve_s is the mean over the run's solves, the expected
// time, which moves smoothly with the mix; a median would jump between
// the modes. W=nproc gets the extra samples because its time depends on
// the layout and W=1's barely does. NOTES.md has the details.
func (m *measurement) endToEnd(path string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var setupS, solveN, solve1, rssMB samples
	steal0, total0 := cpuTicks()
	deadline := time.Now().Add(m.cfg.seconds)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		w := m.workers
		if i%4 == 1 {
			w = 1
		}
		out, ok := m.child(exe, path, w)
		if !ok {
			continue
		}
		setupS = append(setupS, out.SetupS)
		if w == m.workers {
			solveN = append(solveN, out.SolveS)
		} else {
			solve1 = append(solve1, out.SolveS)
			// Peak RSS comes from the one-worker solves, whose allocation
			// sequence, and so the garbage collector's timing, repeats.
			rssMB = append(rssMB, float64(out.RSS)/(1<<20))
		}
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		fmt.Fprintf(m.out, "host noise: %.2f%% of machine CPU time stolen by the hypervisor during the solves\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	fmt.Fprintf(m.out, "setup_s: %s\n", setupS.describe("s"))
	fmt.Fprintf(m.out, "solve_s (W=%d): %s\n", m.workers, solveN.describe("s"))
	fmt.Fprintf(m.out, "solve_s_w1 (W=1): %s\n", solve1.describe("s"))
	fmt.Fprintf(m.out, "peak_rss_mb (W=1): %s\n", rssMB.describe("MB"))
	if m.ref == nil {
		return nil
	}
	m.metrics = map[string]metric{
		"setup_s":     {setupS.median(), "s"},
		"solve_s":     {solveN.mean(), "s"},
		"solve_s_w1":  {solve1.median(), "s"},
		"rr_sets":     {float64(m.ref.RRStats.Sets), "count"},
		"approx":      {m.ref.Approx, "ratio"},
		"peak_rss_mb": {rssMB.median(), "MB"},
		"pass_rate":   {float64(m.attempted-m.failed) / float64(m.attempted), "ratio"},
	}
	return nil
}

// child runs one solve in a fresh process and checks its result.
func (m *measurement) child(exe, path string, workers int) (childOut, bool) {
	m.attempted++
	what := fmt.Sprintf("Maximize at W=%d", workers)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, childFlag, fmt.Sprint(workers),
		"--workload", m.cfg.w.name, "--scale", fmt.Sprint(m.cfg.scale),
		"--seed", fmt.Sprint(m.cfg.seed), "--graph", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	b, err := cmd.Output()
	if err != nil {
		m.fail(fmt.Sprintf("%s: child process: %v: %s", what, err, strings.TrimSpace(stderr.String())))
		return childOut{}, false
	}
	var out childOut
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil || out.Result == nil {
		m.fail(fmt.Sprintf("%s: child output %q: %v", what, lines[len(lines)-1], err))
		return childOut{}, false
	}
	return out, m.check(what, out.Result)
}

// childMain is the entry point of a child process.
func childMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlags(stderr)
	workers := fs.Int(childFlag[2:], 0, "worker count of the one solve")
	path := fs.String("graph", "", "graph file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := fs.workload()
	if err == nil && (*workers < 1 || *workers > runtime.NumCPU() || *path == "") {
		err = fmt.Errorf("child needs 1 <= %s <= nproc and --graph", childFlag)
	}
	if err == nil {
		err = runChild(w, *fs.seed, *path, *workers, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench child:", err)
		return 1
	}
	return 0
}
