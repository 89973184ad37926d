package im

import (
	"math"
	"time"

	"subsim/internal/bounds"
	"subsim/internal/coverage"
	"subsim/internal/obs"
	"subsim/internal/rrset"
)

// IMM is the martingale-based IM algorithm of Tang et al. (2015), the
// classic baseline of Figure 1. It runs in two phases:
//
//  1. OPT estimation ("Sampling"): for x = n/2, n/4, ... it generates
//     θ_i = λ'(ε')/x_i RR sets, selects a greedy seed set, and accepts
//     LB = n·Λ(S)/θ_i / (1+ε') as a lower bound on OPT_k once the
//     coverage estimate exceeds (1+ε')·x_i, with ε' = √2·ε.
//  2. Node selection: it tops the collection up to θ = λ*/LB RR sets and
//     returns the greedy seed set over the full collection.
//
// RR sets are reused across phases as in the original system. The failure
// exponent l is adjusted by the standard l·(1 + ln 2 / ln n) correction so
// the union bound over both phases still yields 1 - n^{-l}.
func IMM(gen rrset.Generator, opt Options) (*Result, error) {
	start := time.Now() //lint:allow timing (wall-clock Elapsed reporting only)
	g := gen.Graph()
	n := g.N()
	if err := opt.Normalize(n); err != nil {
		return nil, err
	}
	// δ = n^{-l}; recover l from the requested δ, then apply the
	// two-phase correction from the IMM paper.
	logn := math.Log(float64(n))
	l := math.Max(1, -math.Log(opt.Delta)/logn)
	l = l * (1 + math.Ln2/logn)
	epsPrime := math.Sqrt2 * opt.Eps

	tr := opt.Tracer
	run := tr.Span("imm")
	opt.Logger.RunStart("imm", n, g.M(), opt.K, opt.Eps, opt.Seed, opt.Workers)
	b := NewInstrumentedBatcher(gen, opt.Seed, opt.Workers, tr.Metrics())
	var outDeg []int32
	if opt.Revised {
		outDeg = outDegrees(gen)
	}
	idx := NewIndex(n, outDeg, opt, tr.Metrics())

	res := &Result{}
	lambdaPrime := bounds.IMMLambdaPrime(n, opt.K, epsPrime, l)
	lb := 1.0
	maxI := int(math.Log2(float64(n)))
	if maxI < 1 {
		maxI = 1
	}
	est1 := run.Child("opt-estimation")
	for i := 1; i < maxI; i++ {
		res.Rounds = i
		rs := est1.Child(obs.Round(i))
		x := float64(n) / math.Pow(2, float64(i))
		thetaI := int64(math.Ceil(lambdaPrime / x))
		if add := thetaI - int64(idx.NumSets()); add > 0 {
			sp := rs.Child("sampling")
			b.Fill(idx, int(add), nil)
			sp.SetInt("theta", add).End()
		}
		ss := rs.Child("selection")
		sel := idx.SelectSeeds(coverage.GreedyOptions{K: opt.K, Revised: opt.Revised})
		ss.End()
		est := float64(n) * float64(sel.TotalCoverage(0)) / float64(idx.NumSets())
		rs.SetInt("theta", int64(idx.NumSets())).SetFloat("estimate", est).End()
		tr.Metrics().SetBounds(i, lb, 0, 0)
		opt.Logger.RoundDone("imm", i, int64(idx.NumSets()), lb, 0, 0)
		if est >= (1+epsPrime)*x {
			lb = est / (1 + epsPrime)
			opt.Logger.BoundCrossed("imm", i, est, (1+epsPrime)*x)
			break
		}
	}
	est1.SetFloat("opt_lower_bound", lb).End()

	ns := run.Child("node-selection")
	thetaWorst := bounds.IMMTheta(n, opt.K, opt.Eps, l, lb)
	// The OPT-estimation lower bound also feeds the tightened one-shot
	// budget: both analyses certify (1-1/e-ε, 1-δ) for the greedy set
	// over the final collection, so the smaller θ suffices.
	thetaTight := bounds.ThetaTightOPT(n, opt.K, opt.Eps, opt.Delta, lb)
	if thetaTight > thetaWorst {
		thetaTight = thetaWorst
	}
	res.ThetaWorstCase, res.ThetaTight = thetaWorst, thetaTight
	tr.Metrics().SetTheta(thetaWorst, thetaTight)
	theta := thetaWorst
	if opt.Bound == BoundTight && thetaTight < theta {
		theta = thetaTight
		tr.Metrics().AddThetaSaved(thetaWorst - thetaTight)
	}
	if add := theta - int64(idx.NumSets()); add > 0 {
		sp := ns.Child("sampling")
		b.Fill(idx, int(add), nil)
		sp.SetInt("theta", add).End()
	}
	ss := ns.Child("selection")
	sel := idx.SelectSeeds(coverage.GreedyOptions{K: opt.K, Revised: opt.Revised})
	ss.End()
	ns.SetInt("theta", int64(idx.NumSets())).End()
	res.Seeds = sel.Seeds
	res.Influence = float64(n) * float64(sel.TotalCoverage(0)) / float64(idx.NumSets())
	res.RRStats = b.Stats()
	run.SetInt("rounds", int64(res.Rounds)).End()
	res.Elapsed = time.Since(start) //lint:allow timing (wall-clock Elapsed reporting only)
	opt.Logger.RunDone("imm", res.Rounds, res.RRStats.Sets, res.Influence, res.Elapsed.Nanoseconds())
	res.Report = tr.Report()
	return res, nil
}
