package subsim_test

import (
	"fmt"
	"testing"

	"subsim"
)

// TestCertificateAgainstOracle checks the certified bounds of OPIM-C,
// SUBSIM and HIST+SUBSIM against an independent influence oracle: a
// fixed collection of RR sets drawn under a seed no run uses. With
// probability 1-δ each run's LowerBound is at most I(S) and its
// UpperBound at least OPT, and OPT is at least the influence of any seed
// set. So the oracle's confidence interval for I(S) must reach down to
// LowerBound, and UpperBound must reach the oracle's lower bound on
// I(S') for every seed set S' any of the runs picked. A run whose
// coverage counts are off (estimated rather than exact Λ) certifies
// bounds the oracle refutes.
func TestCertificateAgainstOracle(t *testing.T) {
	const (
		n           = 5000
		oracleTheta = 100_000
		oracleDelta = 1e-3
	)
	g, err := subsim.GenErdosRenyi(n, 8*n, 11)
	if err != nil {
		t.Fatal(err)
	}
	g.AssignWC()
	o, err := subsim.NewInfluenceOracle(subsim.NewRRGenerator(g, subsim.GenVanilla), oracleTheta, 0xC0FFEE)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		name   string
		res    *subsim.Result
		lo, hi float64 // the oracle's interval for I(res.Seeds)
	}
	var runs []run
	optLower := 0.0 // the best oracle lower bound on OPT seen so far
	for _, alg := range []subsim.Algorithm{subsim.AlgOPIMC, subsim.AlgSUBSIM, subsim.AlgHISTSubsim} {
		for seed := uint64(1); seed <= 3; seed++ {
			res, err := subsim.Maximize(g, alg, subsim.Options{K: 50, Eps: 0.12, Seed: seed, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := o.Interval(res.Seeds, oracleDelta)
			runs = append(runs, run{fmt.Sprintf("%v seed %d", alg, seed), res, lo, hi})
			optLower = max(optLower, lo)
		}
	}
	for _, r := range runs {
		if r.res.LowerBound <= 0 || r.res.UpperBound < r.res.LowerBound {
			t.Errorf("%s: no certificate: lower %.1f, upper %.1f", r.name, r.res.LowerBound, r.res.UpperBound)
		}
		if r.res.LowerBound > r.hi {
			t.Errorf("%s: LowerBound %.1f on I(S) is above the oracle's upper bound %.1f", r.name, r.res.LowerBound, r.hi)
		}
		if r.lo > r.res.UpperBound {
			t.Errorf("%s: UpperBound %.1f on OPT is below the oracle's lower bound %.1f on I(S)", r.name, r.res.UpperBound, r.lo)
		}
		if optLower > r.res.UpperBound {
			t.Errorf("%s: UpperBound %.1f on OPT is below the oracle's lower bound %.1f on another run's seeds", r.name, r.res.UpperBound, optLower)
		}
	}
}
