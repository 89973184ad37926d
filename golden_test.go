package subsim_test

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"subsim"
	"subsim/internal/rrset"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_results.json")

// goldenRecord is one pinned run: the algorithm-visible outputs of
// Maximize on a fixed graph, seed and worker count.
type goldenRecord struct {
	Graph      string
	Alg        string
	Workers    int
	Seeds      []int32
	LowerBound float64
	UpperBound float64
	Approx     float64
	RRStats    rrset.Stats
	Rounds     int
}

// goldenGraphs are small fixed graphs whose generators are deterministic
// for a seed: an Erdős–Rényi graph under WC (small RR sets), the same
// shape under the WC variant with θ=3 (large RR sets, so HIST's
// sentinel phase hits often) and a Watts–Strogatz ring under WC.
func goldenGraphs(t *testing.T) map[string]*subsim.Graph {
	t.Helper()
	er, err := subsim.GenErdosRenyi(2000, 16000, 11)
	if err != nil {
		t.Fatal(err)
	}
	er.AssignWC()
	erv, err := subsim.GenErdosRenyi(1000, 5000, 12)
	if err != nil {
		t.Fatal(err)
	}
	erv.AssignWCVariant(3)
	ws, err := subsim.GenWattsStrogatz(2000, 4, 0.1, 13)
	if err != nil {
		t.Fatal(err)
	}
	ws.AssignWC()
	pa, err := subsim.GenPreferentialAttachment(5000, 10, false, 14)
	if err != nil {
		t.Fatal(err)
	}
	pa.AssignWC()
	pav, err := subsim.GenPreferentialAttachment(5000, 10, false, 14)
	if err != nil {
		t.Fatal(err)
	}
	pav.AssignWCVariant(3)
	return map[string]*subsim.Graph{"er-wc": er, "er-wcv": erv, "ws-wc": ws, "pa-wc": pa, "pa-wcv": pav}
}

// TestGoldenResults pins the exact outputs of OPIM-C, IMM and
// HIST+SUBSIM (plus TIM+ and SSA on one graph) at workers 1, 2 and 8
// against values recorded with the former single-store coverage index.
// Large-k rows on a preferential-attachment graph follow, recorded with
// the full-scan Λᵘ bound that the CELF-heap walk replaced: SUBSIM and
// HIST+SUBSIM at k=200 under WC and HIST+SUBSIM under the WC variant,
// where the bound is evaluated at many prefixes with a large L (HIST's
// second phase bounds with TopL = k > k-b, an exclusion mask and a
// sentinel base).
// Any change to RR generation, the coverage engine or the algorithm
// loops that moves a seed, a bound bit or a generation counter fails
// here. Regenerate only for an intended change of results:
//
//	go test -run TestGoldenResults -update-golden .
func TestGoldenResults(t *testing.T) {
	graphs := goldenGraphs(t)
	algs := []subsim.Algorithm{subsim.AlgOPIMC, subsim.AlgIMM, subsim.AlgHISTSubsim}
	type goldenCase struct {
		graph string
		algs  []subsim.Algorithm
		k     int
	}
	cases := []goldenCase{
		// TIM+ and SSA generate 5-50x the sets of OPIM-C on er-wc, so
		// they run on one graph only. TIM+ is the baseline that feeds the
		// index one set at a time (Index.Add).
		{"er-wc", slices.Concat(algs, []subsim.Algorithm{subsim.AlgTIMPlus, subsim.AlgSSA}), 20},
		{"er-wcv", algs, 20},
		{"ws-wc", algs, 20},
		// On pa-wcv the upper bound saturates at n, so the HIST row on
		// pa-wc is the one whose second-phase bound bits are pinned.
		{"pa-wc", []subsim.Algorithm{subsim.AlgSUBSIM, subsim.AlgHISTSubsim}, 200},
		{"pa-wcv", []subsim.Algorithm{subsim.AlgHISTSubsim}, 200},
	}
	var got []goldenRecord
	for _, c := range cases {
		for _, alg := range c.algs {
			for _, w := range []int{1, 2, 8} {
				res, err := subsim.Maximize(graphs[c.graph], alg, subsim.Options{K: c.k, Eps: 0.2, Seed: 5, Workers: w})
				if err != nil {
					t.Fatalf("%s %v w=%d: %v", c.graph, alg, w, err)
				}
				got = append(got, goldenRecord{
					Graph: c.graph, Alg: alg.String(), Workers: w,
					Seeds: res.Seeds, LowerBound: res.LowerBound, UpperBound: res.UpperBound,
					Approx: res.Approx, RRStats: res.RRStats, Rounds: res.Rounds,
				})
			}
		}
	}

	path := filepath.Join("testdata", "golden_results.json")
	if *updateGolden {
		// One record per line keeps diffs of a deliberate update readable.
		out := []byte("[\n")
		for i, r := range got {
			raw, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, raw...)
			if i < len(got)-1 {
				out = append(out, ',')
			}
			out = append(out, '\n')
		}
		out = append(out, "]\n"...)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d records, run produced %d", len(want), len(got))
	}
	for i, g := range got {
		w := want[i]
		if g.Graph != w.Graph || g.Alg != w.Alg || g.Workers != w.Workers {
			t.Fatalf("record %d is %s/%s/w=%d, golden has %s/%s/w=%d", i, g.Graph, g.Alg, g.Workers, w.Graph, w.Alg, w.Workers)
		}
		id := g.Graph + "/" + g.Alg
		if !equalSeeds(g.Seeds, w.Seeds) {
			t.Errorf("%s w=%d: seeds %v, golden %v", id, g.Workers, g.Seeds, w.Seeds)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"LowerBound", g.LowerBound, w.LowerBound},
			{"UpperBound", g.UpperBound, w.UpperBound},
			{"Approx", g.Approx, w.Approx},
		} {
			if math.Float64bits(f.got) != math.Float64bits(f.want) {
				t.Errorf("%s w=%d: %s %v, golden %v", id, g.Workers, f.name, f.got, f.want)
			}
		}
		if g.RRStats != w.RRStats {
			t.Errorf("%s w=%d: RRStats %+v, golden %+v", id, g.Workers, g.RRStats, w.RRStats)
		}
		if g.Rounds != w.Rounds {
			t.Errorf("%s w=%d: Rounds %d, golden %d", id, g.Workers, g.Rounds, w.Rounds)
		}
	}
}

func equalSeeds(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
