package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"subsim"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a smoke run starts its child processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childFlag {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// contract is the part of BENCHMARK.json the benchmark's output must
// match.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSmoke runs every workload scaled down, untraced and traced, and
// checks that the result line names exactly the metrics BENCHMARK.json
// lists, each with its unit, and that every check passed, including the
// replay's reproduction of Maximize's result.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range c.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(listed, ",") {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", names, listed)
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{c.EndToEnd, c.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "3", "--seconds", "0.01",
					"--trace", fmt.Sprint(trace), "--scale", "10", "--workdir", dir}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s\n%s", code, errOut.String(), out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if !strings.HasPrefix(lines[0], "host: cpu=") {
					t.Errorf("first line %q is not the host tag", lines[0])
				}
				var res result
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
					t.Fatalf("correct=%t failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				var got, exp []string
				for k, v := range res.Metrics {
					got = append(got, k+" "+v.Unit)
				}
				for _, m := range want {
					exp = append(exp, m.Name+" "+m.Unit)
				}
				sort.Strings(got)
				sort.Strings(exp)
				if strings.Join(got, ",") != strings.Join(exp, ",") {
					t.Fatalf("metrics\n got %v\nwant %v", got, exp)
				}
			})
		}
	}
}

// TestDiffResults checks that the replay-fidelity comparison sees a
// change in each field it covers.
func TestDiffResults(t *testing.T) {
	base := func() *subsim.Result {
		return &subsim.Result{Seeds: []int32{3, 1}, LowerBound: 10, UpperBound: 12, Approx: 10.0 / 12,
			Influence: 11, Rounds: 4, SentinelRR: 7, SentinelSize: 1}
	}
	if d := diffResults(base(), base()); d != "" {
		t.Fatalf("equal results differ: %s", d)
	}
	for name, mutate := range map[string]func(r *subsim.Result){
		"seeds":    func(r *subsim.Result) { r.Seeds[1] = 2 },
		"lower":    func(r *subsim.Result) { r.LowerBound += 1e-12 },
		"upper":    func(r *subsim.Result) { r.UpperBound = 13 },
		"rounds":   func(r *subsim.Result) { r.Rounds++ },
		"rrstats":  func(r *subsim.Result) { r.RRStats.EdgesExamined++ },
		"approx":   func(r *subsim.Result) { r.Approx = 0.5 },
		"sentinel": func(r *subsim.Result) { r.SentinelRR++ },
	} {
		r := base()
		mutate(r)
		if diffResults(base(), r) == "" {
			t.Errorf("%s: change not detected", name)
		}
	}
}
