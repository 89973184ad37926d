package im

import (
	"time"

	"subsim/internal/bounds"
	"subsim/internal/coverage"
	"subsim/internal/obs"
	"subsim/internal/rrset"
)

// OPIMC is the online-processing IM algorithm of Tang et al. (2018),
// the strongest baseline in the paper and the chassis SUBSIM plugs into.
//
// It maintains two independent RR collections of equal size: R₁ selects a
// greedy seed set and yields the upper bound I⁺(S_k°) via Equation (2)
// with the maxMC coverage bound, R₂ yields the lower bound I⁻(S_k*) via
// Equation (1). The run stops as soon as I⁻/I⁺ exceeds 1-1/e-ε; otherwise
// both collections double, up to the budget θ_max that guarantees success
// in the final iteration.
func OPIMC(gen rrset.Generator, opt Options) (*Result, error) {
	start := time.Now() //lint:allow timing (wall-clock Elapsed reporting only)
	g := gen.Graph()
	n := g.N()
	if err := opt.Normalize(n); err != nil {
		return nil, err
	}

	thetaWorst := bounds.ThetaMaxOPIMC(n, opt.K, opt.Eps, opt.Delta)
	thetaTight := bounds.ThetaMaxTight(n, opt.K, opt.Eps, opt.Delta)
	thetaMax := thetaWorst
	if opt.Bound == BoundTight && thetaTight < thetaMax {
		thetaMax = thetaTight
	}
	theta0 := bounds.Theta0(opt.Delta)
	iMax := doublingRounds(theta0, thetaMax)
	deltaIter := opt.Delta / (3 * float64(iMax))
	target := bounds.GreedyFactor(opt.Eps)

	tr := opt.Tracer
	run := tr.Span("opimc")
	opt.Logger.RunStart("opimc", n, g.M(), opt.K, opt.Eps, opt.Seed, opt.Workers)
	b := NewInstrumentedBatcher(gen, opt.Seed, opt.Workers, tr.Metrics())
	var outDeg []int32
	if opt.Revised {
		outDeg = outDegrees(gen)
	}
	idx1 := NewIndex(n, outDeg, opt, tr.Metrics())
	idx2 := NewIndex(n, outDeg, opt, tr.Metrics())

	res := &Result{ThetaWorstCase: thetaWorst, ThetaTight: thetaTight}
	tr.Metrics().SetTheta(thetaWorst, thetaTight)
	theta := theta0
	sp := run.Child("sampling")
	b.Fill(idx1, int(theta), nil)
	b.Fill(idx2, int(theta), nil)
	sp.SetInt("theta", theta).End()

	for i := 1; ; i++ {
		res.Rounds = i
		rs := run.Child(obs.Round(i))
		ss := rs.Child("selection")
		sel := idx1.SelectSeeds(coverage.GreedyOptions{K: opt.K, Revised: opt.Revised})
		ss.End()
		res.Seeds = sel.Seeds
		bc := rs.Child("bound-check")
		res.UpperBound = bounds.UpperBound(sel.CoverageUpper, int64(idx1.NumSets()), n, deltaIter)
		cov2 := idx2.CoverageOf(sel.Seeds)
		res.LowerBound = bounds.LowerBound(cov2, int64(idx2.NumSets()), n, deltaIter)
		res.Influence = float64(cov2) * float64(n) / float64(idx2.NumSets())
		if res.UpperBound > 0 {
			res.Approx = res.LowerBound / res.UpperBound
		}
		bc.End()
		tr.Metrics().SetBounds(i, res.LowerBound, res.UpperBound, res.Approx)
		opt.Logger.RoundDone("opimc", i, int64(idx1.NumSets()), res.LowerBound, res.UpperBound, res.Approx)
		rs.SetInt("theta", int64(idx1.NumSets())).SetFloat("approx", res.Approx)
		if opt.Bound == BoundTight && res.LowerBound > float64(opt.K) {
			// The certified influence lower bound is an OPT lower bound,
			// so the adaptive tightened budget may shrink θ_max further.
			if t := bounds.ThetaTightOPT(n, opt.K, opt.Eps, opt.Delta, res.LowerBound); t < thetaMax {
				thetaMax = t
			}
		}
		stop := res.Approx > target || i >= iMax
		if opt.Bound == BoundTight && int64(idx1.NumSets()) >= thetaMax {
			stop = true
		}
		if stop {
			if res.Approx > target {
				opt.Logger.BoundCrossed("opimc", i, res.Approx, target)
			}
			rs.End()
			break
		}
		sp := rs.Child("sampling")
		b.Fill(idx1, int(theta), nil)
		b.Fill(idx2, int(theta), nil)
		sp.SetInt("theta", theta).End()
		rs.End()
		theta *= 2
	}
	if opt.Bound == BoundTight && thetaMax < thetaWorst {
		tr.Metrics().AddThetaSaved(thetaWorst - thetaMax)
	}
	res.RRStats = b.Stats()
	run.SetInt("rounds", int64(res.Rounds)).End()
	res.Elapsed = time.Since(start) //lint:allow timing (wall-clock Elapsed reporting only)
	opt.Logger.RunDone("opimc", res.Rounds, res.RRStats.Sets, res.Influence, res.Elapsed.Nanoseconds())
	res.Report = tr.Report()
	return res, nil
}
