package im

import (
	"math"
	"time"

	"subsim/internal/bounds"
	"subsim/internal/coverage"
	"subsim/internal/rrset"
)

// TIMPlus is the TIM⁺ algorithm of Tang et al. (2014), the first
// practical RR-set method and the direct predecessor of IMM. The paper
// discusses it as the O(k(m+n)ε⁻²log n) baseline; it is included for
// completeness and for the historical comparison in the benchmarks.
//
// Phase 1 (KPT estimation): for i = 1, 2, ... it draws c_i = λ_kpt·2^i
// RR sets and computes κ(R) = 1 - (1 - w(R)/m)^k per set, where w(R) is
// the number of edges entering R; E[κ] = KPT/n where KPT lower-bounds
// OPT_k. The loop stops at the first scale where the empirical mean
// clears 1/2^i.
//
// Phase 2 (refinement, the "+" in TIM⁺): a greedy seed set over the
// phase-1 collection gives an intersection-based lower bound KPT′; the
// final KPT* = max(KPT, KPT′) tightens the sample size
// θ = λ/KPT* with λ = (8+2ε)·n·(l·ln n + ln C(n,k) + ln 2)/ε².
func TIMPlus(gen rrset.Generator, opt Options) (*Result, error) {
	start := time.Now() //lint:allow timing (wall-clock Elapsed reporting only)
	g := gen.Graph()
	n := g.N()
	if err := opt.Normalize(n); err != nil {
		return nil, err
	}
	logn := math.Log(float64(n))
	l := math.Max(1, -math.Log(opt.Delta)/logn)

	tr := opt.Tracer
	run := tr.Span("timplus")
	opt.Logger.RunStart("timplus", n, g.M(), opt.K, opt.Eps, opt.Seed, opt.Workers)
	b := NewInstrumentedBatcher(gen, opt.Seed, opt.Workers, tr.Metrics())
	var outDeg []int32
	if opt.Revised {
		outDeg = outDegrees(gen)
	}
	idx := NewIndex(n, outDeg, opt, tr.Metrics())

	// In-degrees for w(R).
	inDeg := make([]int64, n)
	for v := 0; v < n; v++ {
		inDeg[v] = int64(g.InDegree(int32(v)))
	}
	m := float64(g.M())
	if m == 0 {
		m = 1
	}

	res := &Result{}
	kpt := 1.0
	maxI := int(math.Log2(float64(n))) - 1
	if maxI < 1 {
		maxI = 1
	}
	baseCount := int64(math.Ceil((6*l*logn + 6*math.Ln2)))
	var kappaSum float64
	measured := 0
	kptSpan := run.Child("kpt-estimation")
	for i := 1; i <= maxI; i++ {
		res.Rounds = i
		want := baseCount << uint(i)
		if add := want - int64(idx.NumSets()); add > 0 {
			b.Visit(int(add), nil, func(set []int32) bool {
				var w int64
				for _, v := range set {
					w += inDeg[v]
				}
				frac := float64(w) / m
				if frac > 1 {
					frac = 1
				}
				kappaSum += 1 - math.Pow(1-frac, float64(opt.K))
				idx.Add(set)
				measured++
				return true
			})
		}
		if measured == 0 {
			continue
		}
		avg := kappaSum / float64(measured)
		tr.Metrics().SetBounds(i, kpt, 0, 0)
		opt.Logger.RoundDone("timplus", i, int64(idx.NumSets()), kpt, 0, 0)
		if avg > 1/math.Pow(2, float64(i)) {
			kpt = avg * float64(n) / 2
			opt.Logger.BoundCrossed("timplus", i, avg, 1/math.Pow(2, float64(i)))
			break
		}
	}

	kptSpan.SetFloat("kpt", kpt).SetInt("rounds", int64(res.Rounds)).End()

	// Refinement: the greedy seed set's de-biased coverage over a fresh
	// collection sharpens KPT.
	refine := run.Child("refinement")
	selPrev := idx.SelectSeeds(coverage.GreedyOptions{K: opt.K, Revised: opt.Revised})
	epsPrime := 5 * math.Cbrt(l*opt.Eps*opt.Eps/(l+float64(opt.K)/math.Max(1, logn)))
	if epsPrime > 1 {
		epsPrime = 1
	}
	thetaPrime := int64(math.Ceil((2 + epsPrime) * l * float64(n) * logn / (epsPrime * epsPrime * kpt)))
	if limit := int64(4 * float64(n)); thetaPrime > limit {
		thetaPrime = limit
	}
	fresh := NewIndex(n, outDeg, opt, tr.Metrics())
	b.Fill(fresh, int(thetaPrime), nil)
	covFresh := fresh.CoverageOf(selPrev.Seeds)
	kptPrime := float64(covFresh) / float64(fresh.NumSets()) * float64(n) / (1 + epsPrime)
	if kptPrime > kpt {
		kpt = kptPrime
	}
	refine.SetFloat("kpt", kpt).End()

	// Final sampling and selection.
	ns := run.Child("node-selection")
	lambda := (8 + 2*opt.Eps) * float64(n) *
		(l*logn + bounds.LogChoose(n, opt.K) + math.Ln2) / (opt.Eps * opt.Eps)
	thetaWorst := int64(math.Ceil(lambda / kpt))
	// KPT* lower-bounds OPT, so it also feeds the tightened one-shot
	// budget; both analyses certify the final greedy set.
	thetaTightC := bounds.ThetaTightOPT(n, opt.K, opt.Eps, opt.Delta, kpt)
	if thetaTightC > thetaWorst {
		thetaTightC = thetaWorst
	}
	res.ThetaWorstCase, res.ThetaTight = thetaWorst, thetaTightC
	tr.Metrics().SetTheta(thetaWorst, thetaTightC)
	theta := thetaWorst
	if opt.Bound == BoundTight && thetaTightC < theta {
		theta = thetaTightC
		tr.Metrics().AddThetaSaved(thetaWorst - thetaTightC)
	}
	if add := theta - int64(idx.NumSets()); add > 0 {
		b.Fill(idx, int(add), nil)
	}
	sel := idx.SelectSeeds(coverage.GreedyOptions{K: opt.K, Revised: opt.Revised})
	ns.SetInt("theta", int64(idx.NumSets())).End()
	res.Seeds = sel.Seeds
	res.Influence = float64(n) * float64(sel.TotalCoverage(0)) / float64(idx.NumSets())
	res.RRStats = b.Stats()
	run.SetInt("rounds", int64(res.Rounds)).End()
	res.Elapsed = time.Since(start) //lint:allow timing (wall-clock Elapsed reporting only)
	opt.Logger.RunDone("timplus", res.Rounds, res.RRStats.Sets, res.Influence, res.Elapsed.Nanoseconds())
	res.Report = tr.Report()
	return res, nil
}
