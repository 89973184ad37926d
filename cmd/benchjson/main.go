// Command benchjson records `go test -bench` output as machine-readable
// JSON baselines and compares recorded runs, so performance numbers live
// in the repository next to the code they describe.
//
// Usage:
//
//	benchjson -file BENCH_rrset.json -label arena-csr [bench_output.txt]
//	    Parse benchmark text (a file argument or stdin) and record it
//	    under the given label, replacing any run with the same label.
//
//	benchjson -file BENCH_rrset.json -compare pre-arena,arena-csr
//	    Print a before/after table (ns/op, B/op, allocs/op with deltas)
//	    for two recorded runs.
//
//	benchjson -file BENCH_rrset.json -list
//	    List the recorded runs.
//
//	benchjson -file BENCH_rrset.json -check arena-csr,current
//	    Regression gate: compare the runs like -compare, but exit with a
//	    non-zero status if any common benchmark's ns/op in the second run
//	    is more than -tolerance percent (default 15) slower than in the
//	    first. Intended for CI / make targets.
//
//	benchjson ... -check old,new -filter '_W1$'
//	    Restrict -compare/-check to benchmark names matching the regexp.
//	    Lets a gate pin only the machine-independent benchmarks (e.g. the
//	    serial _W1 variants) while worker-scaling variants, whose numbers
//	    depend on the recording host's core count, stay informational.
//
// When a benchmark appears multiple times (e.g. -count 3), the fastest
// ns/op line is kept, following the usual "best observed time" bench
// convention. The trailing -N GOMAXPROCS suffix is stripped from names
// so baselines recorded on machines with different core counts compare.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Metrics is one benchmark's measurements: the three standard go-test
// columns plus any custom b.ReportMetric units (e.g. sets/op).
type Metrics struct {
	NsOp     float64            `json:"ns_op"`
	BOp      float64            `json:"b_op,omitempty"`
	AllocsOp float64            `json:"allocs_op,omitempty"`
	Extra    map[string]float64 `json:"extra,omitempty"`
}

// Run is one recorded benchmark pass.
type Run struct {
	Label     string `json:"label"`
	Recorded  string `json:"recorded"`
	GoVersion string `json:"go_version"`
	// Caveat flags a run whose numbers need a health warning — e.g. W>1
	// variants recorded on a single-core host, which measure partitioning
	// overhead rather than parallel speedup. A struct field (not a free
	// comment in the JSON) so save() round-trips it instead of dropping it.
	Caveat     string             `json:"caveat,omitempty"`
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

// File is the on-disk schema of BENCH_*.json.
type File struct {
	Schema int   `json:"schema"`
	Runs   []Run `json:"runs"`
}

func main() {
	var (
		path    = flag.String("file", "BENCH_rrset.json", "JSON baseline file to read/write")
		label   = flag.String("label", "", "record parsed benchmarks under this label")
		caveat  = flag.String("caveat", "", "health warning recorded alongside -label (e.g. single-core host)")
		compare = flag.String("compare", "", "compare two recorded labels, \"old,new\"")
		check   = flag.String("check", "", "like -compare, but fail when \"new\" regresses vs \"old\"")
		tol     = flag.Float64("tolerance", 15, "allowed ns/op regression percentage for -check")
		filter  = flag.String("filter", "", "regexp restricting -compare/-check to matching benchmark names")
		list    = flag.Bool("list", false, "list recorded runs")
	)
	flag.Parse()
	if err := run(*path, *label, *caveat, *compare, *check, *tol, *filter, *list, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(path, label, caveat, compare, check string, tol float64, filter string, list bool, args []string) error {
	f, err := load(path)
	if err != nil {
		return err
	}
	switch {
	case list:
		for _, r := range f.Runs {
			fmt.Printf("%-20s %s  (%d benchmarks, %s)\n", r.Label, r.Recorded, len(r.Benchmarks), r.GoVersion)
		}
		return nil
	case compare != "" || check != "":
		spec, flagName := compare, "-compare"
		if check != "" {
			spec, flagName = check, "-check"
		}
		labels := strings.SplitN(spec, ",", 2)
		if len(labels) != 2 {
			return fmt.Errorf("%s wants \"old,new\", got %q", flagName, spec)
		}
		old, err := f.find(labels[0])
		if err != nil {
			return err
		}
		cur, err := f.find(labels[1])
		if err != nil {
			return err
		}
		if filter != "" {
			re, err := regexp.Compile(filter)
			if err != nil {
				return fmt.Errorf("-filter: %w", err)
			}
			old, cur = filterRun(old, re), filterRun(cur, re)
		}
		printComparison(os.Stdout, old, cur)
		if check != "" {
			return checkRegression(os.Stdout, old, cur, tol)
		}
		return nil
	case label != "":
		var in io.Reader = os.Stdin
		if len(args) > 0 {
			fh, err := os.Open(args[0])
			if err != nil {
				return err
			}
			defer fh.Close()
			in = fh
		}
		bms, err := parseBench(in)
		if err != nil {
			return err
		}
		if len(bms) == 0 {
			return fmt.Errorf("no benchmark lines found in input")
		}
		f.put(Run{
			Label:      label,
			Recorded:   time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			Caveat:     caveat,
			Benchmarks: bms,
		})
		if err := save(path, f); err != nil {
			return err
		}
		fmt.Printf("recorded %d benchmarks as %q in %s\n", len(bms), label, path)
		return nil
	default:
		return fmt.Errorf("one of -label, -compare or -list is required")
	}
}

func load(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &File{Schema: 1}, nil
	}
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func save(path string, f *File) error {
	f.Schema = 1
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func (f *File) find(label string) (Run, error) {
	for _, r := range f.Runs {
		if r.Label == label {
			return r, nil
		}
	}
	return Run{}, fmt.Errorf("no run labelled %q (use -list)", label)
}

// filterRun returns a copy of the run keeping only the benchmarks whose
// name matches re.
func filterRun(r Run, re *regexp.Regexp) Run {
	kept := make(map[string]Metrics, len(r.Benchmarks))
	for name, m := range r.Benchmarks {
		if re.MatchString(name) {
			kept[name] = m
		}
	}
	r.Benchmarks = kept
	return r
}

// put replaces the run with the same label or appends a new one.
func (f *File) put(r Run) {
	for i := range f.Runs {
		if f.Runs[i].Label == r.Label {
			f.Runs[i] = r
			return
		}
	}
	f.Runs = append(f.Runs, r)
}

// parseBench extracts benchmark results from go-test output. Lines look
// like:
//
//	BenchmarkFillIndex_Subsim_W1-8  234  5060000 ns/op  123 B/op  7 allocs/op  2000 sets/op
//
// Non-benchmark lines are ignored. The fastest ns/op wins for repeated
// names.
func parseBench(r io.Reader) (map[string]Metrics, error) {
	out := map[string]Metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip -GOMAXPROCS
			}
		}
		var m Metrics
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsOp = val
				seen = true
			case "B/op":
				m.BOp = val
			case "allocs/op":
				m.AllocsOp = val
			default:
				if m.Extra == nil {
					m.Extra = map[string]float64{}
				}
				m.Extra[fields[i+1]] = val
			}
		}
		if !seen {
			continue
		}
		if prev, ok := out[name]; !ok || m.NsOp < prev.NsOp {
			out[name] = m
		}
	}
	return out, sc.Err()
}

func printComparison(w io.Writer, old, cur Run) {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		if _, ok := old.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-40s %12s %12s %8s %12s %12s %8s %12s %12s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "Δ",
		"old B/op", "new B/op", "Δ", "old allocs", "new allocs", "Δ")
	for _, name := range names {
		o, n := old.Benchmarks[name], cur.Benchmarks[name]
		fmt.Fprintf(w, "%-40s %12.0f %12.0f %8s %12.0f %12.0f %8s %12.0f %12.0f %8s\n",
			strings.TrimPrefix(name, "Benchmark"),
			o.NsOp, n.NsOp, delta(o.NsOp, n.NsOp),
			o.BOp, n.BOp, delta(o.BOp, n.BOp),
			o.AllocsOp, n.AllocsOp, delta(o.AllocsOp, n.AllocsOp))
	}
	if len(names) == 0 {
		fmt.Fprintf(w, "(no common benchmarks between %q and %q)\n", old.Label, cur.Label)
	}
	printExtraMetrics(w, names, old, cur)
}

// printExtraMetrics lists custom b.ReportMetric units recorded in either
// run (e.g. the "speedup" and "efficiency" columns of the scale-matrix
// label) as per-unit comparison rows under the main table.
func printExtraMetrics(w io.Writer, names []string, old, cur Run) {
	units := map[string]bool{}
	for _, name := range names {
		for unit := range old.Benchmarks[name].Extra {
			units[unit] = true
		}
		for unit := range cur.Benchmarks[name].Extra {
			units[unit] = true
		}
	}
	if len(units) == 0 {
		return
	}
	ordered := make([]string, 0, len(units))
	for unit := range units {
		ordered = append(ordered, unit)
	}
	sort.Strings(ordered)
	for _, unit := range ordered {
		fmt.Fprintf(w, "\n%-40s %14s %14s %8s\n", "benchmark", "old "+unit, "new "+unit, "Δ")
		for _, name := range names {
			o, okO := old.Benchmarks[name].Extra[unit]
			n, okN := cur.Benchmarks[name].Extra[unit]
			if !okO && !okN {
				continue
			}
			fmt.Fprintf(w, "%-40s %14.0f %14.0f %8s\n",
				strings.TrimPrefix(name, "Benchmark"), o, n, delta(o, n))
		}
	}
}

// checkRegression returns an error (non-zero exit) when any benchmark
// present in both runs got more than tol percent slower by ns/op. A run
// pair with no common benchmarks is also an error: a gate that compares
// nothing would silently pass forever.
func checkRegression(w io.Writer, old, cur Run, tol float64) error {
	common, slower := 0, []string{}
	for name, n := range cur.Benchmarks {
		o, ok := old.Benchmarks[name]
		if !ok || o.NsOp == 0 {
			continue
		}
		common++
		if pct := (n.NsOp - o.NsOp) / o.NsOp * 100; pct > tol {
			slower = append(slower, fmt.Sprintf("%s: %+.1f%% (%.0f -> %.0f ns/op)",
				strings.TrimPrefix(name, "Benchmark"), pct, o.NsOp, n.NsOp))
		}
	}
	if common == 0 {
		return fmt.Errorf("no common benchmarks between %q and %q", old.Label, cur.Label)
	}
	if len(slower) > 0 {
		sort.Strings(slower)
		for _, s := range slower {
			fmt.Fprintln(w, "REGRESSION", s)
		}
		return fmt.Errorf("%d of %d benchmarks regressed more than %.0f%% (%q vs %q)",
			len(slower), common, tol, cur.Label, old.Label)
	}
	fmt.Fprintf(w, "check passed: %d benchmarks within %.0f%% of %q\n", common, tol, old.Label)
	return nil
}

// delta formats the relative change from before to after ("-37.5%").
func delta(before, after float64) string {
	if before == 0 {
		if after == 0 {
			return "0%"
		}
		return "+inf"
	}
	return fmt.Sprintf("%+.1f%%", (after-before)/before*100)
}
