// Package subsim is a Go implementation of SUBSIM and HIST, the
// efficient reverse-reachable (RR) set generation framework and the
// Hit-and-Stop influence-maximization algorithm of
//
//	Guo, Wang, Wei, Chen. "Influence Maximization Revisited: Efficient
//	Reverse Reachable Set Generation with Bound Tightened." SIGMOD 2020.
//
// together with complete reimplementations of the baselines the paper
// compares against (IMM, SSA, OPIM-C), the graph substrate, forward
// Monte-Carlo diffusion, and the benchmark harness that regenerates the
// paper's tables and figures.
//
// # Quick start
//
//	g, _ := subsim.GenPreferentialAttachment(100_000, 10, false, 1)
//	g.AssignWC()
//	res, err := subsim.Maximize(g, subsim.AlgHISTSubsim, subsim.Options{
//		K: 100, Eps: 0.1, Seed: 1,
//	})
//	if err != nil { ... }
//	fmt.Println(res.Seeds, res.Influence)
//
// The influence of any seed set can be verified by forward simulation:
//
//	spread := subsim.EstimateInfluence(g, res.Seeds, 10_000, subsim.IC, 1)
//
// All entry points are deterministic for a fixed Options.Seed,
// independent of the worker count: every RR set is drawn from an RNG
// stream derived from its global index.
//
// Attach a Tracer (see NewTracer) to Options.Tracer to collect phase
// spans, RR-generation histograms and a machine-readable run report at
// negligible cost; a nil tracer is free.
package subsim

import (
	"fmt"
	"io"
	"os"

	"subsim/internal/core"
	"subsim/internal/diffusion"
	"subsim/internal/graph"
	"subsim/internal/heuristics"
	"subsim/internal/im"
	"subsim/internal/obs"
	"subsim/internal/oracle"
	"subsim/internal/rng"
	"subsim/internal/rrset"
)

// Graph is a directed social network with propagation probabilities; see
// the builder, generator and loader functions below for construction and
// the Assign* methods for the paper's weight models.
type Graph = graph.Graph

// Builder accumulates edges and produces an immutable Graph.
type Builder = graph.Builder

// Edge is a directed edge with its propagation probability.
type Edge = graph.Edge

// WeightModel identifies a propagation-probability assignment.
type WeightModel = graph.WeightModel

// Weight models (see Graph.AssignWC and friends).
const (
	ModelUnset       = graph.ModelUnset
	ModelWC          = graph.ModelWC
	ModelWCVariant   = graph.ModelWCVariant
	ModelUniform     = graph.ModelUniform
	ModelExponential = graph.ModelExponential
	ModelWeibull     = graph.ModelWeibull
	ModelLT          = graph.ModelLT
)

// Options configures an influence-maximization run. Set Options.Tracer
// (see NewTracer) to collect phase spans, RR metrics and a run report.
type Options = im.Options

// Result reports a run's seed set, certified bounds and cost accounting.
// Result.Report carries the observability run report when a Tracer was
// attached.
type Result = im.Result

// BoundKind selects the sample-complexity analysis capping θ via
// Options.Bound: the worst-case IMM/OPIM-C constants (the zero value)
// or the Sadeh–Cohen–Kaplan-style tightened budget, which lets
// algorithms stop at the smaller certified θ. Both are reported in
// Result.ThetaWorstCase / Result.ThetaTight either way.
type BoundKind = im.BoundKind

// Sample-complexity bounds.
const (
	// BoundIMM keeps the worst-case IMM/OPIM-C budget (default).
	BoundIMM = im.BoundIMM
	// BoundTight engages the tightened budget.
	BoundTight = im.BoundTight
)

// ParseBound maps a flag value ("imm" | "tight") to its kind.
func ParseBound(s string) (BoundKind, error) { return im.ParseBound(s) }

// Tracer records phase spans and low-overhead RR-generation metrics for
// a run; construct one with NewTracer and attach it to Options.Tracer.
// A nil *Tracer disables all instrumentation at zero cost.
type Tracer = obs.Tracer

// RunReport is the schema-versioned machine-readable summary of one run:
// the span tree, power-of-two histograms (RR size, edge examinations per
// set, geometric skip lengths), counters and per-worker totals. Write it
// with its WriteJSON / WritePrometheus methods.
type RunReport = obs.Report

// RRMetrics is the live metric set behind a tracer (atomic counters and
// histograms shared by all workers).
type RRMetrics = obs.MetricSet

// NewTracer returns an enabled tracer with a fresh metric set.
func NewTracer() *Tracer { return obs.NewTracer() }

// Logger emits structured run events (run.start, round.done,
// bound.crossed, phase.done, run.done) through log/slog; attach one to
// Options.Logger. A nil *Logger is silent and allocation-free on every
// emit site, mirroring the nil-tracer contract.
type Logger = obs.Logger

// NewLogger builds a run-event logger writing to w: format "json" uses
// slog's JSONHandler, anything else the TextHandler. A nil writer
// returns a nil (disabled) logger.
func NewLogger(w io.Writer, format string) *Logger {
	return obs.NewLoggerWriter(w, format, nil)
}

// RRSet is one reverse-reachable sample.
type RRSet = rrset.RRSet

// RRGenerator produces random RR sets; construct one with NewRRGenerator.
type RRGenerator = rrset.Generator

// GeneratorKind selects an RR generation strategy.
type GeneratorKind = core.GeneratorKind

// RR set generation strategies.
const (
	// GenVanilla is the classic per-edge coin-flip generator (paper
	// Algorithm 2).
	GenVanilla = core.Vanilla
	// GenSubsim is the paper's subset-sampling generator (Algorithm 3,
	// with the index-free general-IC fallback of Section 3.3).
	GenSubsim = core.Subsim
	// GenSubsimBucketed is the preprocessed general-IC sampler
	// (Lemma 5).
	GenSubsimBucketed = core.SubsimBucketed
	// GenSubsimBucketedJump adds the bucket-jump chain.
	GenSubsimBucketedJump = core.SubsimBucketedJump
	// GenLT is the Linear Threshold reverse random walk.
	GenLT = core.LTGen
)

// Model selects the forward cascade process for influence estimation.
type Model = diffusion.Model

// Cascade models for EstimateInfluence.
const (
	IC = diffusion.IC
	LT = diffusion.LTModel
)

// Algorithm identifies an influence-maximization algorithm.
type Algorithm int

const (
	// AlgIMM is IMM (Tang et al. 2015) with vanilla RR generation.
	AlgIMM Algorithm = iota
	// AlgSSA is Stop-and-Stare (Nguyen et al. 2016; SSA-Fix checks)
	// with vanilla RR generation.
	AlgSSA
	// AlgOPIMC is OPIM-C (Tang et al. 2018) with vanilla RR generation.
	AlgOPIMC
	// AlgSUBSIM is the paper's headline configuration: OPIM-C with
	// SUBSIM RR generation.
	AlgSUBSIM
	// AlgHIST is Hit-and-Stop with vanilla RR generation.
	AlgHIST
	// AlgHISTSubsim is Hit-and-Stop with SUBSIM RR generation
	// ("HIST+SUBSIM" in the paper).
	AlgHISTSubsim
	// AlgTIMPlus is TIM⁺ (Tang et al. 2014), the predecessor of IMM,
	// with vanilla RR generation.
	AlgTIMPlus
)

// String returns the algorithm name used in experiment output.
func (a Algorithm) String() string {
	switch a {
	case AlgIMM:
		return "IMM"
	case AlgSSA:
		return "SSA"
	case AlgOPIMC:
		return "OPIM-C"
	case AlgSUBSIM:
		return "SUBSIM"
	case AlgHIST:
		return "HIST"
	case AlgHISTSubsim:
		return "HIST+SUBSIM"
	case AlgTIMPlus:
		return "TIM+"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Maximize runs the selected influence-maximization algorithm on g and
// returns a seed set of size opt.K that is (1-1/e-opt.Eps)-approximate
// with probability at least 1-opt.Delta (IMM/OPIM-C/SUBSIM/HIST; SSA
// follows the corrected Stop-and-Stare schedule).
func Maximize(g *Graph, alg Algorithm, opt Options) (*Result, error) {
	switch alg {
	case AlgIMM:
		return im.IMM(rrset.NewVanilla(g), opt)
	case AlgSSA:
		return im.SSA(rrset.NewVanilla(g), opt)
	case AlgOPIMC:
		return im.OPIMC(rrset.NewVanilla(g), opt)
	case AlgSUBSIM:
		return core.SUBSIM(g, opt)
	case AlgHIST:
		return core.HIST(rrset.NewVanilla(g), opt)
	case AlgHISTSubsim:
		return core.HIST(rrset.NewSubsim(g), opt)
	case AlgTIMPlus:
		return im.TIMPlus(rrset.NewVanilla(g), opt)
	default:
		return nil, fmt.Errorf("subsim: unknown algorithm %d", int(alg))
	}
}

// MaximizeWith runs an algorithm chassis over an explicit RR generator,
// for callers that want a non-default pairing (e.g. IMM+SUBSIM, or HIST
// over the bucketed general-IC sampler).
func MaximizeWith(gen RRGenerator, alg Algorithm, opt Options) (*Result, error) {
	switch alg {
	case AlgIMM:
		return im.IMM(gen, opt)
	case AlgSSA:
		return im.SSA(gen, opt)
	case AlgOPIMC, AlgSUBSIM:
		return im.OPIMC(gen, opt)
	case AlgHIST, AlgHISTSubsim:
		return core.HIST(gen, opt)
	case AlgTIMPlus:
		return im.TIMPlus(gen, opt)
	default:
		return nil, fmt.Errorf("subsim: unknown algorithm %d", int(alg))
	}
}

// NewRRGenerator constructs an RR set generator of the given kind over g.
// Generators are not safe for concurrent use; call Clone per goroutine.
func NewRRGenerator(g *Graph, kind GeneratorKind) RRGenerator {
	return core.NewGenerator(g, kind)
}

// EstimateInfluence estimates the expected influence of a seed set by
// forward Monte-Carlo simulation with the given number of samples,
// parallelised across GOMAXPROCS workers. It is deterministic for a
// fixed seed.
func EstimateInfluence(g *Graph, seeds []int32, samples int, model Model, seed uint64) float64 {
	return diffusion.EstimateParallel(g, seeds, samples, model, seed, 0)
}

// InfluenceInterval is a Monte-Carlo influence estimate with a
// confidence interval; see EstimateInfluenceInterval.
type InfluenceInterval = diffusion.Interval

// EstimateInfluenceInterval estimates the expected influence by forward
// simulation and reports a normal-theory confidence interval at the
// given level (e.g. 0.95). The interval quantifies Monte-Carlo error
// only; for bounds that hold against the true expectation use the RR
// influence oracle.
func EstimateInfluenceInterval(g *Graph, seeds []int32, samples int, model Model, confidence float64, seed uint64) InfluenceInterval {
	return diffusion.EstimateInterval(g, seeds, samples, model, confidence, seed, 0)
}

// AssignSkewed assigns a skewed edge-weight distribution to g —
// ModelExponential draws Exponential(λ=1) weights, ModelWeibull draws
// Weibull(a,b) weights with a,b ~ U(0,10] per edge — normalising each
// node's incoming weights to sum to 1, as in the paper's Figure 2 setup.
// The equal-probability models are assigned directly with the Graph's
// AssignWC / AssignWCVariant / AssignUniform / AssignLT methods.
func AssignSkewed(g *Graph, model WeightModel, seed uint64) error {
	r := rng.New(seed)
	switch model {
	case ModelExponential:
		g.AssignExponential(r, 1)
	case ModelWeibull:
		g.AssignWeibull(r)
	default:
		return fmt.Errorf("subsim: AssignSkewed supports ModelExponential and ModelWeibull, got %v", model)
	}
	return nil
}

// SampleRRSets draws count random reverse-reachable sets from gen
// (uniform random roots), seeded by seed, and returns them. It is the
// low-level entry point for callers that build their own estimators on
// top of RR sampling; the Maximize algorithms manage RR collections
// internally.
func SampleRRSets(gen RRGenerator, count int, seed uint64) []RRSet {
	r := rng.New(seed)
	sets := make([]RRSet, 0, count)
	for i := 0; i < count; i++ {
		sets = append(sets, rrset.GenerateRandom(gen, r, nil))
	}
	return sets
}

// RRStats reports the cost counters a generator has accumulated.
func RRStats(gen RRGenerator) rrset.Stats { return gen.Stats() }

// InstrumentRRGenerator wraps gen so every generated set streams its
// size and edge-examination count into m's histograms (plus the
// geometric-skip histogram for SUBSIM generators). A nil m returns gen
// unchanged. Obtain m from Tracer.Metrics.
func InstrumentRRGenerator(gen RRGenerator, m *RRMetrics) RRGenerator {
	return rrset.Instrument(gen, m, nil)
}

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// LoadGraph reads a graph from a file; ".bin" selects the binary format,
// anything else the edge-list text format.
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// LoadSNAP reads a headerless SNAP/KONECT-style edge list (one "from to
// [weight]" pair per line, '#'/'%' comments ignored), mirroring edges
// when undirected is true — the format the paper's datasets are
// distributed in. Ids are preserved; call the Graph's CompactLargestWCC
// to drop isolated ids and keep the giant component.
func LoadSNAP(path string, undirected bool) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadSNAP(f, undirected)
}

// GenErdosRenyi samples a directed G(n, m) graph seeded by seed. Assign a
// weight model before running any algorithm.
func GenErdosRenyi(n int, m int64, seed uint64) (*Graph, error) {
	return graph.GenErdosRenyi(n, m, rng.New(seed))
}

// GenPreferentialAttachment grows a scale-free graph with the given
// attachment degree; see the graph package for details. Assign a weight
// model before running any algorithm.
func GenPreferentialAttachment(n, deg int, undirected bool, seed uint64) (*Graph, error) {
	return graph.GenPreferentialAttachment(n, deg, undirected, rng.New(seed))
}

// GenWattsStrogatz generates a small-world network: a ring lattice of
// degree k rewired with probability beta. Assign a weight model before
// running any algorithm.
func GenWattsStrogatz(n, k int, beta float64, seed uint64) (*Graph, error) {
	return graph.GenWattsStrogatz(n, k, beta, rng.New(seed))
}

// SBMParams configures a stochastic block model; see GenSBM.
type SBMParams = graph.SBMParams

// GenSBM samples a directed stochastic block model — explicit community
// structure, the regime where certified algorithms clearly beat degree
// heuristics. Assign a weight model before running any algorithm.
func GenSBM(p SBMParams, seed uint64) (*Graph, error) {
	return graph.GenSBM(p, rng.New(seed))
}

// GraphStats summarises a graph's structure; obtain one with the Graph's
// ComputeStats method.
type GraphStats = graph.Stats

// Heuristic identifies a guarantee-free seed-selection baseline; see
// SelectHeuristic.
type Heuristic = heuristics.Name

// Known heuristics, in rough order of sophistication.
const (
	HeuristicDegree         = heuristics.NameDegree
	HeuristicSingleDiscount = heuristics.NameSingleDiscount
	HeuristicDegreeDiscount = heuristics.NameDegreeDiscount
	HeuristicPageRank       = heuristics.NamePageRank
	HeuristicOneHop         = heuristics.NameOneHop
)

// Heuristics lists the known heuristics.
var Heuristics = heuristics.All

// SelectHeuristic runs the named guarantee-free heuristic and returns k
// seeds. Heuristics are near-linear-time but come with no approximation
// guarantee; use them as fast baselines or as quality floors.
func SelectHeuristic(g *Graph, name Heuristic, k int) ([]int32, error) {
	return heuristics.Select(name, g, k)
}

// InfluenceOracle answers expected-influence queries for arbitrary seed
// sets over a fixed RR collection (Borgs et al. 2014); build one with
// NewInfluenceOracle. Queries are not safe for concurrent use.
type InfluenceOracle = oracle.Oracle

// NewInfluenceOracle draws theta RR sets through gen and returns an
// oracle whose Estimate/Interval methods answer influence queries
// without further sampling.
func NewInfluenceOracle(gen RRGenerator, theta int64, seed uint64) (*InfluenceOracle, error) {
	return oracle.New(gen, theta, seed, 0)
}

// NewInfluenceOracleWithPrecision sizes the collection so any fixed seed
// set with influence at least iMin is estimated within relative error
// eps with probability 1-delta per query.
func NewInfluenceOracleWithPrecision(gen RRGenerator, eps, delta, iMin float64, seed uint64) (*InfluenceOracle, error) {
	return oracle.NewWithPrecision(gen, eps, delta, iMin, seed, 0)
}
