package bench

import (
	"fmt"
	"io"
	"time"

	"subsim/internal/core"
	"subsim/internal/diffusion"
	"subsim/internal/graph"
	"subsim/internal/im"
	"subsim/internal/obs"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// Config parameterises an experiment run. The zero value is not usable;
// start from DefaultConfig or QuickConfig.
type Config struct {
	// Scale multiplies the default dataset sizes.
	Scale float64
	// Reps is the number of repetitions averaged per timing cell (the
	// paper uses 5).
	Reps int
	// Eps and Delta are the approximation parameters (paper: ε=0.1,
	// δ=1/n; Delta 0 selects 1/n per graph).
	Eps   float64
	Delta float64
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds RR-generation parallelism (0 = GOMAXPROCS).
	Workers int
	// Bound selects the sample-complexity analysis (worst-case IMM/OPIM-C
	// constants, or the tightened variant).
	Bound im.BoundKind
	// Ks is the seed-set size sweep of Figures 1, 4 and 5.
	Ks []int
	// FixedK is the seed-set size of Figures 6 and 7 (paper: 200).
	FixedK int
	// StatsK is the seed-set size of Figure 3 (paper: 2000).
	StatsK int
	// RRTargets is the average-RR-size sweep of Figures 6 and 7
	// (paper: 50, 400, 1000, 4000, 8000, 32000).
	RRTargets []float64
	// HighTarget is the θ₄ₖ-style calibration target of Figures 3-5.
	HighTarget float64
	// Fig2Sets is the number of RR sets generated per kernel in
	// Figure 2 (paper: 2¹⁰ × 1000).
	Fig2Sets int
	// MCSamples is the forward-simulation budget per influence estimate
	// in Figure 5.
	MCSamples int
	// Datasets overrides the default registry when non-nil.
	Datasets []Dataset
	// Tracer, when non-nil, receives one span per experiment cell plus
	// the per-algorithm phase spans and RR metrics of every run it times.
	// Nil disables all instrumentation at zero cost.
	Tracer *obs.Tracer
	// Logger, when non-nil, receives structured run events from every
	// timed run (see obs.Logger); nil is silent at zero cost.
	Logger *obs.Logger
}

// DefaultConfig returns a full-reproduction configuration at laptop
// scale: minutes, not hours.
func DefaultConfig() Config {
	return Config{
		Scale:      1,
		Reps:       3,
		Eps:        0.1,
		Seed:       2020,
		Ks:         []int{1, 10, 50, 100, 200, 500, 1000, 2000},
		FixedK:     200,
		StatsK:     2000,
		RRTargets:  []float64{50, 400, 1000, 4000, 8000, 32000},
		HighTarget: 4000,
		Fig2Sets:   200000,
		MCSamples:  10000,
	}
}

// QuickConfig returns a configuration small enough for unit tests and
// smoke runs (seconds).
func QuickConfig() Config {
	c := DefaultConfig()
	c.Reps = 1
	c.Eps = 0.3
	c.Ks = []int{1, 10, 50}
	c.FixedK = 20
	c.StatsK = 50
	c.RRTargets = []float64{20, 100}
	c.HighTarget = 100
	c.Fig2Sets = 3000
	c.MCSamples = 2000
	c.Datasets = QuickDatasets()
	return c
}

func (c *Config) datasets() []Dataset {
	if c.Datasets != nil {
		return c.Datasets
	}
	return DefaultDatasets(c.Scale)
}

func (c *Config) options(k int) im.Options {
	return im.Options{K: k, Eps: c.Eps, Delta: c.Delta, Seed: c.Seed, Workers: c.Workers,
		Bound: c.Bound, Tracer: c.Tracer, Logger: c.Logger}
}

// highTarget caps the θ₄ₖ-style calibration target so it stays a feasible
// average RR size for a graph of n nodes (the paper's datasets have
// millions of nodes, so 4000 is always feasible there).
func (c *Config) highTarget(n int) float64 {
	t := c.HighTarget
	if cap := float64(n) / 5; t > cap {
		t = cap
	}
	if t < 1 {
		t = 1
	}
	return t
}

// timeAlg runs f Reps times and returns the average wall-clock seconds
// and the last result.
func (c *Config) timeAlg(f func(seed uint64) (*im.Result, error)) (float64, *im.Result, error) {
	reps := c.Reps
	if reps < 1 {
		reps = 1
	}
	var total time.Duration
	var last *im.Result
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		res, err := f(c.Seed + uint64(rep))
		if err != nil {
			return 0, nil, err
		}
		total += time.Since(start)
		last = res
	}
	return total.Seconds() / float64(reps), last, nil
}

// RunTable2 prints the dataset summary (paper Table 2).
func RunTable2(c Config, w io.Writer) (*Table, error) {
	t := &Table{
		Title:  "Table 2: summary of datasets (synthetic stand-ins)",
		Header: []string{"Dataset", "Type", "n", "m", "avg deg"},
	}
	for _, d := range c.datasets() {
		g, err := d.Generate()
		if err != nil {
			return nil, err
		}
		typ := "directed"
		if !d.Directed {
			typ = "undirected"
		}
		t.AddRow(d.Name, typ, fmt.Sprint(g.N()), fmt.Sprint(g.M()), Cell(g.AvgDegree()))
	}
	return t, t.Fprint(w)
}

// fig1Algorithms are the Figure 1 series in the paper's order.
var fig1Algorithms = []struct {
	name string
	run  func(g *graph.Graph, opt im.Options) (*im.Result, error)
}{
	{"IMM", func(g *graph.Graph, opt im.Options) (*im.Result, error) {
		return im.IMM(rrset.NewVanilla(g), opt)
	}},
	{"SSA", func(g *graph.Graph, opt im.Options) (*im.Result, error) {
		return im.SSA(rrset.NewVanilla(g), opt)
	}},
	{"OPIM-C", func(g *graph.Graph, opt im.Options) (*im.Result, error) {
		return im.OPIMC(rrset.NewVanilla(g), opt)
	}},
	{"SUBSIM", core.SUBSIM},
}

// RunFig1 reproduces Figure 1: running time under the WC model as k
// varies, for IMM, SSA, OPIM-C and SUBSIM on every dataset.
func RunFig1(c Config, w io.Writer) (*Table, error) {
	t := &Table{
		Title:  "Figure 1: running time (s) under WC, varying k",
		Header: []string{"Dataset", "k", "IMM", "SSA", "OPIM-C", "SUBSIM"},
	}
	for _, d := range c.datasets() {
		g, err := d.Generate()
		if err != nil {
			return nil, err
		}
		g.AssignWC()
		for _, k := range c.Ks {
			if k > g.N() {
				continue
			}
			row := []string{d.Name, fmt.Sprint(k)}
			for _, alg := range fig1Algorithms {
				secs, _, err := c.timeAlg(func(seed uint64) (*im.Result, error) {
					opt := c.options(k)
					opt.Seed = seed
					return alg.run(g, opt)
				})
				if err != nil {
					return nil, fmt.Errorf("%s/%s k=%d: %w", d.Name, alg.name, k, err)
				}
				row = append(row, Seconds(secs))
			}
			t.AddRow(row...)
		}
	}
	return t, t.Fprint(w)
}

// RunFig2 reproduces Figure 2: the cost of generating a fixed number of
// random RR sets under skewed (Exponential and Weibull) edge weights,
// for the vanilla generator and the SUBSIM kernels.
func RunFig2(c Config, w io.Writer) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Figure 2: time (s) to generate %d RR sets under skewed weights", c.Fig2Sets),
		Header: []string{"Dataset", "Distribution", "vanilla", "SUBSIM(index-free)",
			"SUBSIM(bucket)", "SUBSIM(bucket+jump)", "speedup"},
	}
	for _, d := range c.datasets() {
		g, err := d.Generate()
		if err != nil {
			return nil, err
		}
		for _, dist := range []string{"Exponential", "Weibull"} {
			r := rng.New(c.Seed)
			if dist == "Exponential" {
				g.AssignExponential(r, 1)
			} else {
				g.AssignWeibull(r)
			}
			gens := []struct {
				name string
				gen  rrset.Generator
			}{
				{"vanilla", rrset.NewVanilla(g)},
				{"index-free", rrset.NewSubsim(g)},
				{"bucket", rrset.NewSubsimBucketed(g, false)},
				{"bucket+jump", rrset.NewSubsimBucketed(g, true)},
			}
			times := make([]float64, len(gens))
			for i, gk := range gens {
				src := rng.New(c.Seed + 7)
				start := time.Now()
				for s := 0; s < c.Fig2Sets; s++ {
					rrset.GenerateRandom(gk.gen, src, nil)
				}
				times[i] = time.Since(start).Seconds()
			}
			speedup := times[0] / times[1]
			t.AddRow(d.Name, dist, Seconds(times[0]), Seconds(times[1]),
				Seconds(times[2]), Seconds(times[3]), fmt.Sprintf("%.1fx", speedup))
		}
	}
	return t, t.Fprint(w)
}

// RunFig3 reproduces Figure 3: RR set statistics of HIST vs OPIM-C under
// the WC-variant θ₄ₖ setting with k = StatsK — (a) the number of RR sets
// in HIST's sentinel phase vs OPIM-C's total, and (b) the average RR set
// size of both.
func RunFig3(c Config, w io.Writer) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Figure 3: RR set statistics (WC variant θ_%v, k=%d)", c.HighTarget, c.StatsK),
		Header: []string{"Dataset", "theta", "HIST sentinel #RR", "OPIM-C #RR",
			"HIST avg |R|", "OPIM-C avg |R|", "size reduction"},
	}
	for _, d := range c.datasets() {
		g, err := d.Generate()
		if err != nil {
			return nil, err
		}
		if c.StatsK > g.N() {
			continue
		}
		theta := CalibrateWCVariant(g, c.highTarget(g.N()), c.Seed)
		opt := c.options(c.StatsK)
		histRes, err := core.HIST(rrset.NewVanilla(g), opt)
		if err != nil {
			return nil, err
		}
		opimRes, err := im.OPIMC(rrset.NewVanilla(g), opt)
		if err != nil {
			return nil, err
		}
		red := opimRes.RRStats.AvgSize() / histRes.RRStats.AvgSize()
		t.AddRow(d.Name, Cell(theta),
			fmt.Sprint(histRes.SentinelRR), fmt.Sprint(opimRes.RRStats.Sets),
			Cell(histRes.RRStats.AvgSize()), Cell(opimRes.RRStats.AvgSize()),
			fmt.Sprintf("%.1fx", red))
	}
	return t, t.Fprint(w)
}

// highInfluenceAlgorithms are the Figure 4/6/7 series.
var highInfluenceAlgorithms = []struct {
	name string
	run  func(g *graph.Graph, opt im.Options) (*im.Result, error)
}{
	{"OPIM-C", func(g *graph.Graph, opt im.Options) (*im.Result, error) {
		return im.OPIMC(rrset.NewVanilla(g), opt)
	}},
	{"HIST", func(g *graph.Graph, opt im.Options) (*im.Result, error) {
		return core.HIST(rrset.NewVanilla(g), opt)
	}},
	{"HIST+SUBSIM", func(g *graph.Graph, opt im.Options) (*im.Result, error) {
		return core.HIST(rrset.NewSubsim(g), opt)
	}},
}

// RunFig4 reproduces Figure 4: running time under the WC-variant θ₄ₖ
// setting as k varies, for OPIM-C, HIST and HIST+SUBSIM.
func RunFig4(c Config, w io.Writer) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Figure 4: running time (s) under WC variant θ_%v, varying k", c.HighTarget),
		Header: []string{"Dataset", "k", "OPIM-C", "HIST", "HIST+SUBSIM"},
	}
	for _, d := range c.datasets() {
		g, err := d.Generate()
		if err != nil {
			return nil, err
		}
		CalibrateWCVariant(g, c.highTarget(g.N()), c.Seed)
		for _, k := range c.Ks {
			if k > g.N() {
				continue
			}
			row := []string{d.Name, fmt.Sprint(k)}
			for _, alg := range highInfluenceAlgorithms {
				secs, _, err := c.timeAlg(func(seed uint64) (*im.Result, error) {
					opt := c.options(k)
					opt.Seed = seed
					return alg.run(g, opt)
				})
				if err != nil {
					return nil, fmt.Errorf("%s/%s k=%d: %w", d.Name, alg.name, k, err)
				}
				row = append(row, Seconds(secs))
			}
			t.AddRow(row...)
		}
	}
	return t, t.Fprint(w)
}

// RunFig5 reproduces Figure 5: the expected influence (forward
// Monte-Carlo estimate) of HIST+SUBSIM's seed set as k grows, under the
// WC-variant θ₄ₖ setting.
func RunFig5(c Config, w io.Writer) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Figure 5: expected influence under WC variant θ_%v, varying k", c.HighTarget),
		Header: []string{"Dataset", "k", "influence (MC)", "certified lower bound"},
	}
	for _, d := range c.datasets() {
		g, err := d.Generate()
		if err != nil {
			return nil, err
		}
		CalibrateWCVariant(g, c.highTarget(g.N()), c.Seed)
		for _, k := range c.Ks {
			if k > g.N() {
				continue
			}
			res, err := core.HIST(rrset.NewSubsim(g), c.options(k))
			if err != nil {
				return nil, err
			}
			spread := diffusion.EstimateParallel(g, res.Seeds, c.MCSamples, diffusion.IC, c.Seed, c.Workers)
			t.AddRow(d.Name, fmt.Sprint(k), Cell(spread), Cell(res.LowerBound))
		}
	}
	return t, t.Fprint(w)
}

// RunFig6 reproduces Figure 6: running time at k = FixedK as the
// WC-variant θ is swept so the average RR set size crosses RRTargets.
func RunFig6(c Config, w io.Writer) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Figure 6: running time (s) under WC variant, k=%d, varying avg RR size", c.FixedK),
		Header: []string{"Dataset", "target |R|", "theta", "OPIM-C", "HIST", "HIST+SUBSIM"},
	}
	return t, c.runSizeSweep(t, w, false)
}

// RunFig7 reproduces Figure 7: running time at k = FixedK as the
// Uniform-IC p is swept so the average RR set size crosses RRTargets.
func RunFig7(c Config, w io.Writer) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Figure 7: running time (s) under Uniform IC, k=%d, varying avg RR size", c.FixedK),
		Header: []string{"Dataset", "target |R|", "p", "OPIM-C", "HIST", "HIST+SUBSIM"},
	}
	return t, c.runSizeSweep(t, w, true)
}

func (c *Config) runSizeSweep(t *Table, w io.Writer, uniform bool) error {
	for _, d := range c.datasets() {
		g, err := d.Generate()
		if err != nil {
			return err
		}
		for _, target := range c.RRTargets {
			if target > float64(g.N())/2 {
				continue // the graph cannot sustain this average size
			}
			var param float64
			if uniform {
				param = CalibrateUniform(g, target, c.Seed)
			} else {
				param = CalibrateWCVariant(g, target, c.Seed)
			}
			row := []string{d.Name, Cell(target), Cell(param)}
			for _, alg := range highInfluenceAlgorithms {
				secs, _, err := c.timeAlg(func(seed uint64) (*im.Result, error) {
					opt := c.options(c.FixedK)
					opt.Seed = seed
					return alg.run(g, opt)
				})
				if err != nil {
					return fmt.Errorf("%s/%s target=%v: %w", d.Name, alg.name, target, err)
				}
				row = append(row, Seconds(secs))
			}
			t.AddRow(row...)
		}
	}
	return t.Fprint(w)
}

// Experiments maps experiment ids to runners, for the imbench CLI.
var Experiments = map[string]func(Config, io.Writer) (*Table, error){
	"table2":     RunTable2,
	"fig1":       RunFig1,
	"fig2":       RunFig2,
	"fig3":       RunFig3,
	"fig4":       RunFig4,
	"fig5":       RunFig5,
	"fig6":       RunFig6,
	"fig7":       RunFig7,
	"heuristics": RunHeuristics,
	"kernels":    RunGeneratorAblation,
}

// ExperimentOrder lists the paper's experiments in presentation order;
// "heuristics" and "kernels" are extra ablations run on request only.
var ExperimentOrder = []string{"table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"}

// rngFor returns a fresh RNG stream for ad-hoc harness use.
func rngFor(seed uint64) *rng.Source { return rng.New(seed) }
