// Package core implements the paper's contribution: the SUBSIM
// configuration (OPIM-C running on the subset-sampling RR generator) and
// the two-phase HIST ("Hit-and-Stop") algorithm for high-influence
// networks — sentinel-set selection (Algorithm 7) followed by the
// IM-Sentinel phase (Algorithm 8), glued together by Algorithm 4.
package core

import (
	"time"

	"subsim/internal/bounds"
	"subsim/internal/coverage"
	"subsim/internal/graph"
	"subsim/internal/im"
	"subsim/internal/obs"
	"subsim/internal/rrset"
)

// GeneratorKind selects an RR set generation strategy.
type GeneratorKind int

const (
	// Vanilla is Algorithm 2: one coin per incoming edge.
	Vanilla GeneratorKind = iota
	// Subsim is Algorithm 3 + the index-free general-IC fallback.
	Subsim
	// SubsimBucketed is the preprocessed general-IC sampler (Lemma 5).
	SubsimBucketed
	// SubsimBucketedJump adds the bucket-jump chain to SubsimBucketed.
	SubsimBucketedJump
	// LTGen is the Linear Threshold reverse random walk.
	LTGen
)

// String returns the kind name used in experiment output.
func (k GeneratorKind) String() string {
	switch k {
	case Vanilla:
		return "vanilla"
	case Subsim:
		return "subsim"
	case SubsimBucketed:
		return "subsim-bucketed"
	case SubsimBucketedJump:
		return "subsim-bucketed-jump"
	case LTGen:
		return "lt"
	default:
		return "unknown"
	}
}

// NewGenerator constructs the RR generator of the given kind over g.
func NewGenerator(g *graph.Graph, kind GeneratorKind) rrset.Generator {
	switch kind {
	case Subsim:
		return rrset.NewSubsim(g)
	case SubsimBucketed:
		return rrset.NewSubsimBucketed(g, false)
	case SubsimBucketedJump:
		return rrset.NewSubsimBucketed(g, true)
	case LTGen:
		return rrset.NewLT(g)
	default:
		return rrset.NewVanilla(g)
	}
}

// SUBSIM runs the paper's headline configuration: OPIM-C with SUBSIM RR
// set generation (Figure 1's "SUBSIM" series).
func SUBSIM(g *graph.Graph, opt im.Options) (*im.Result, error) {
	return im.OPIMC(rrset.NewSubsim(g), opt)
}

// HIST is the Hit-and-Stop algorithm (paper Algorithm 4). It first
// selects a small sentinel set S_b* with the loose 1-(1-1/k)^b-ε/2
// guarantee, then runs the IM-Sentinel phase where every RR set stops the
// moment it reaches a sentinel, and returns the union of the two seed
// sets, which is (1-1/e-ε)-approximate with probability 1-δ.
//
// The generator argument selects the traversal strategy: HIST with
// Vanilla matches the paper's "HIST", and HIST with Subsim matches
// "HIST+SUBSIM".
func HIST(gen rrset.Generator, opt im.Options) (*im.Result, error) {
	start := time.Now() //lint:allow timing (wall-clock Elapsed reporting only)
	g := gen.Graph()
	n := g.N()
	opt.Revised = true // Algorithm 6 is integral to HIST
	if err := opt.Normalize(n); err != nil {
		return nil, err
	}
	eps1, eps2 := opt.Eps/2, opt.Eps/2
	delta1, delta2 := opt.Delta/2, opt.Delta/2

	tr := opt.Tracer
	run := tr.Span("hist")
	opt.Logger.RunStart("hist", n, g.M(), opt.K, opt.Eps, opt.Seed, opt.Workers)
	phase1 := run.Child("sentinel-phase")
	sentinels, p1 := sentinelSet(gen, opt, phase1, eps1, delta1)
	phase1.SetInt("sentinels", int64(len(sentinels))).
		SetInt("rr_generated", p1.rrGenerated).
		SetInt("sentinel_hits", p1.stats.SentinelHits).
		SetInt("rounds", int64(p1.rounds)).
		End()
	opt.Logger.PhaseDone("hist", "sentinel-phase", time.Since(start).Nanoseconds()) //lint:allow timing (phase.done log event, observability only)

	phase2start := time.Now() //lint:allow timing (phase.done log event, observability only)
	phase2 := run.Child("residual-phase")
	res, err := imSentinel(gen, opt, phase2, sentinels, eps2, delta2)
	if err != nil {
		phase2.End()
		run.End()
		return nil, err
	}
	// Every residual-phase RR set is sentinel-terminated, so the hit
	// rate here is exactly the fraction of sets HIST truncated early —
	// the directly measured form of Figure 3's hit-and-stop saving.
	if res.RRStats.Sets > 0 {
		phase2.SetFloat("sentinel_hit_rate",
			float64(res.RRStats.SentinelHits)/float64(res.RRStats.Sets))
	}
	phase2.SetInt("rounds", int64(res.Rounds)).End()
	opt.Logger.PhaseDone("hist", "residual-phase", time.Since(phase2start).Nanoseconds()) //lint:allow timing (phase.done log event, observability only)

	res.SentinelRR = p1.rrGenerated
	res.SentinelSize = len(sentinels)
	res.RRStats.Add(p1.stats)
	res.Rounds += p1.rounds
	run.SetInt("rounds", int64(res.Rounds)).End()
	res.Elapsed = time.Since(start) //lint:allow timing (wall-clock Elapsed reporting only)
	opt.Logger.RunDone("hist", res.Rounds, res.RRStats.Sets, res.Influence, res.Elapsed.Nanoseconds())
	res.Report = tr.Report()
	return res, nil
}

// phase1Report carries the sentinel phase's cost accounting.
type phase1Report struct {
	rrGenerated int64
	stats       rrset.Stats
	rounds      int
}

// sentinelSet is Algorithm 7. It returns the sentinel nodes S_b* (in
// greedy order) such that, with probability at least 1-δ₁,
// I(S_b*) ≥ (1-(1-1/k)^b-ε₁)·I(S_k°).
func sentinelSet(gen rrset.Generator, opt im.Options, phase *obs.Span, eps1, delta1 float64) ([]int32, phase1Report) {
	g := gen.Graph()
	n := g.N()
	k := opt.K

	theta0 := bounds.Theta0(delta1)
	thetaMax := bounds.ThetaMaxSentinel(n, k, eps1, delta1)
	if opt.Bound == im.BoundTight {
		if t := bounds.ThetaMaxSentinelTight(n, k, eps1, delta1); t < thetaMax {
			thetaMax = t
		}
	}
	iMax := ceilLog2Ratio(theta0, thetaMax)
	deltaU := delta1 / (3 * float64(iMax))
	deltaL := delta1 / (6 * float64(iMax))

	b1 := im.NewInstrumentedBatcher(gen, opt.Seed, opt.Workers, opt.Tracer.Metrics())
	outDeg := outDegrees(g)
	idx1 := im.NewIndex(n, outDeg, opt, opt.Tracer.Metrics())

	rep := phase1Report{}
	theta := theta0
	sp := phase.Child("sampling")
	b1.Fill(idx1, int(theta), nil)
	sp.SetInt("theta", theta).End()

	var sb []int32
	for i := 1; ; i++ {
		rep.rounds = i
		rs := phase.Child(obs.Round(i))
		theta1 := int64(idx1.NumSets())
		ss := rs.Child("selection")
		sel := idx1.SelectSeeds(coverage.GreedyOptions{K: k, Revised: true})
		ss.End()
		bc := rs.Child("bound-check")
		upper := bounds.UpperBound(sel.CoverageUpper, theta1, n, deltaU)

		// Pick the largest prefix size b whose *estimated* lower bound
		// clears the prefix approximation target (Algorithm 7 line 8).
		b := 0
		for a := len(sel.Seeds); a >= 1; a-- {
			est := bounds.LowerBound(sel.Coverage[a-1], theta1, n, deltaU)
			if est/upper > bounds.ApproxFactor(k, a, eps1) {
				b = a
				break
			}
		}
		bc.End()
		rs.SetInt("theta", theta1).SetInt("prefix", int64(b))
		if b == 0 && i >= iMax {
			// Budget exhausted with no verified prefix: θ_max samples
			// make the full greedy set qualified by Lemma 6, so return
			// it (the second phase then has nothing left to select).
			sb = sel.Seeds
			rs.End()
			break
		}
		if b > 0 {
			sb = sel.Seeds[:b]
			sentinel := markSentinels(n, sb)
			// Verify on an independent sentinel-terminated collection:
			// an RR set is covered by S_b* exactly when it stopped on a
			// sentinel, so only the hit count matters.
			vs := rs.Child("verify")
			theta2 := theta1
			hits := countHits(b1, int(theta2), sentinel)
			rep.rrGenerated += theta2
			lower := bounds.LowerBound(hits, theta2, n, deltaL)
			target := bounds.ApproxFactor(k, b, eps1)
			if lower/upper > target {
				vs.SetInt("hits", hits).SetInt("drawn", theta2).End()
				rs.End()
				break
			}
			// Tighten once by growing R₂ to 4|R₁| (Algorithm 7 lines
			// 13-15) before giving up on this candidate.
			extra := 3 * theta2
			hits += countHits(b1, int(extra), sentinel)
			rep.rrGenerated += extra
			lower = bounds.LowerBound(hits, theta2+extra, n, deltaL)
			vs.SetInt("hits", hits).SetInt("drawn", theta2+extra).End()
			if lower/upper > target {
				rs.End()
				break
			}
			if i >= iMax {
				rs.End()
				break
			}
		}
		// Double R₁ and retry.
		sp := rs.Child("sampling")
		b1.Fill(idx1, int(theta), nil)
		sp.SetInt("theta", theta).End()
		rs.End()
		theta *= 2
	}
	rep.rrGenerated += int64(idx1.NumSets())
	rep.stats = b1.Stats()
	return sb, rep
}

// imSentinel is Algorithm 8: select the remaining k-b seeds over
// sentinel-terminated RR collections.
func imSentinel(gen rrset.Generator, opt im.Options, phase *obs.Span, sb []int32, eps2, delta2 float64) (*im.Result, error) {
	g := gen.Graph()
	n := g.N()
	k := opt.K
	b := len(sb)
	sentinel := markSentinels(n, sb)

	theta0 := bounds.Theta0(delta2)
	thetaWorst := bounds.ThetaMaxIMSentinel(n, k, b, eps2, delta2)
	thetaTight := bounds.ThetaMaxIMSentinelTight(n, k, b, eps2, delta2)
	if thetaTight > thetaWorst {
		thetaTight = thetaWorst
	}
	thetaMax := thetaWorst
	if opt.Bound == im.BoundTight && thetaTight < thetaMax {
		thetaMax = thetaTight
		opt.Tracer.Metrics().AddThetaSaved(thetaWorst - thetaTight)
	}
	iMax := ceilLog2Ratio(theta0, thetaMax)
	deltaIter := delta2 / (3 * float64(iMax))
	target := bounds.GreedyFactor(opt.Eps)

	batch := im.NewInstrumentedBatcher(gen, opt.Seed+1, opt.Workers, opt.Tracer.Metrics())
	outDeg := outDegrees(g)
	idx1 := im.NewIndex(n, outDeg, opt, opt.Tracer.Metrics())
	idx2 := im.NewIndex(n, outDeg, opt, opt.Tracer.Metrics())

	res := &im.Result{ThetaWorstCase: thetaWorst, ThetaTight: thetaTight}
	opt.Tracer.Metrics().SetTheta(thetaWorst, thetaTight)
	var hits1, hits2 int64
	var theta1, theta2 int64
	theta := theta0
	sp := phase.Child("sampling")
	hits1 += batch.Fill(idx1, int(theta), sentinel)
	hits2 += batch.Fill(idx2, int(theta), sentinel)
	sp.SetInt("theta", theta).End()
	theta1, theta2 = theta, theta

	for i := 1; ; i++ {
		res.Rounds = i
		rs := phase.Child(obs.Round(i))
		ss := rs.Child("selection")
		sel := idx1.SelectSeeds(coverage.GreedyOptions{
			K: k - b, Revised: true, Base: hits1, TopL: k, Exclude: sentinel,
		})
		ss.End()
		seeds := append(append(make([]int32, 0, k), sb...), sel.Seeds...)
		res.Seeds = seeds
		bc := rs.Child("bound-check")
		res.UpperBound = bounds.UpperBound(sel.CoverageUpper, theta1, n, deltaIter)
		cov2 := hits2 + idx2.CoverageOf(sel.Seeds)
		res.LowerBound = bounds.LowerBound(cov2, theta2, n, deltaIter)
		res.Influence = float64(cov2) * float64(n) / float64(theta2)
		if res.UpperBound > 0 {
			res.Approx = res.LowerBound / res.UpperBound
		}
		bc.End()
		opt.Tracer.Metrics().SetBounds(i, res.LowerBound, res.UpperBound, res.Approx)
		opt.Logger.RoundDone("hist", i, theta1, res.LowerBound, res.UpperBound, res.Approx)
		rs.SetInt("theta", theta1).SetFloat("approx", res.Approx)
		if res.Approx > target || i >= iMax {
			if res.Approx > target {
				opt.Logger.BoundCrossed("hist", i, res.Approx, target)
			}
			rs.End()
			break
		}
		sp := rs.Child("sampling")
		hits1 += batch.Fill(idx1, int(theta), sentinel)
		hits2 += batch.Fill(idx2, int(theta), sentinel)
		sp.SetInt("theta", theta).End()
		rs.End()
		theta1 += theta
		theta2 += theta
		theta *= 2
	}
	res.RRStats = batch.Stats()
	return res, nil
}

// countHits draws `count` sentinel-terminated RR sets and returns how
// many stopped on a sentinel (equivalently, are covered by the sentinel
// set). The sets are scanned in place in the worker arenas and never
// materialised.
func countHits(b *im.Batcher, count int, sentinel []bool) int64 {
	var hits int64
	b.Visit(count, sentinel, func(set []int32) bool {
		if len(set) > 0 && sentinel[set[len(set)-1]] {
			hits++
		}
		return true
	})
	return hits
}

func markSentinels(n int, sb []int32) []bool {
	sentinel := make([]bool, n)
	for _, v := range sb {
		sentinel[v] = true
	}
	return sentinel
}

func outDegrees(g *graph.Graph) []int32 {
	deg := make([]int32, g.N())
	for v := range deg {
		deg[v] = int32(g.OutDegree(int32(v)))
	}
	return deg
}

func ceilLog2Ratio(initial, max int64) int {
	i := 1
	for t := initial; t < max; t *= 2 {
		i++
	}
	if i < 1 {
		i = 1
	}
	return i
}
