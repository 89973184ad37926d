package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"subsim"
	"subsim/internal/rng"
)

// workload is one fixed benchmark input: a generated graph, a weight
// model and the Maximize configuration run over it. NOTES.md records
// why each one was chosen and which layer it stresses.
type workload struct {
	name   string
	alg    subsim.Algorithm
	graph  string // "er" or "pa"
	n      int
	m      int64 // ER edge count
	deg    int   // PA attachment degree
	wcv    float64
	k      int
	eps    float64
	kernel int64 // edge-examination budget of the isolated rrset loop
}

var workloads = []workload{
	{name: "subsim-er", alg: subsim.AlgSUBSIM, graph: "er", n: 50_000, m: 500_000, k: 50, eps: 0.13, kernel: 30_000_000},
	{name: "subsim-pa-k2000", alg: subsim.AlgSUBSIM, graph: "pa", n: 200_000, deg: 10, k: 2000, eps: 0.1, kernel: 30_000_000},
	{name: "hist-pa-wcv", alg: subsim.AlgHISTSubsim, graph: "pa", n: 100_000, deg: 10, wcv: 3, k: 200, eps: 0.1, kernel: 30_000_000},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// scaled shrinks a workload for the smoke test, keeping its shape.
func (w workload) scaled(div int) workload {
	w.n /= div
	w.m /= int64(div)
	if w.k > w.n/20 {
		w.k = w.n / 20
	}
	w.kernel /= int64(div)
	return w
}

// generate builds the workload's unweighted graph from seed.
func (w workload) generate(seed uint64) (*subsim.Graph, error) {
	if w.graph == "er" {
		return subsim.GenErdosRenyi(w.n, w.m, seed)
	}
	return genPA(w.n, w.deg, seed)
}

// assignWeights applies the workload's weight model.
func (w workload) assignWeights(g *subsim.Graph) {
	if w.wcv > 0 {
		g.AssignWCVariant(w.wcv)
	} else {
		g.AssignWC()
	}
}

// genPA grows a directed preferential-attachment graph with the same
// edge distribution as subsim.GenPreferentialAttachment(n, deg, false,
// seed), but deterministic: each node's distinct targets are kept in
// draw order. The library generator iterates a Go map of picks, whose
// order changes from process to process, so the reverse-edge coin flips
// and the attachment list differ between runs with the same seed.
func genPA(n, deg int, seed uint64) (*subsim.Graph, error) {
	if deg < 1 || n < deg+1 {
		return nil, fmt.Errorf("pa: need deg >= 1 and n >= deg+1, got n=%d deg=%d", n, deg)
	}
	r := rng.New(seed)
	b := subsim.NewBuilder(n)
	targets := make([]int32, 0, 2*n*deg)
	for u := int32(0); u <= int32(deg); u++ {
		for v := u + 1; v <= int32(deg); v++ {
			if err := b.AddUndirected(u, v, 0); err != nil {
				return nil, err
			}
			targets = append(targets, u, v)
		}
	}
	picks := make([]int32, 0, deg)
	for u := int32(deg) + 1; u < int32(n); u++ {
		picks = picks[:0]
		for len(picks) < deg {
			t := targets[r.Intn(len(targets))]
			if t == u || contains(picks, t) {
				continue
			}
			picks = append(picks, t)
		}
		for _, t := range picks {
			if err := b.AddEdge(u, t, 0); err != nil {
				return nil, err
			}
			if r.Bernoulli(0.5) {
				if err := b.AddEdge(t, u, 0); err != nil {
					return nil, err
				}
			}
			targets = append(targets, u, t)
		}
	}
	return b.Build(), nil
}

func contains(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// fingerprint identifies a graph by its size and a SHA-256 of its
// binary serialisation (out-degrees, adjacency and weights: the CSR
// arrays a loaded graph is rebuilt from).
type fingerprint struct {
	N    int
	M    int64
	Hash string
}

func (f fingerprint) String() string {
	return fmt.Sprintf("n=%d m=%d sha256=%s", f.N, f.M, f.Hash)
}

func fingerprintOf(g *subsim.Graph, extra io.Writer) (fingerprint, error) {
	h := sha256.New()
	var w io.Writer = h
	if extra != nil {
		w = io.MultiWriter(h, extra)
	}
	if err := g.WriteBinary(w); err != nil {
		return fingerprint{}, err
	}
	return fingerprint{N: g.N(), M: g.M(), Hash: hex.EncodeToString(h.Sum(nil))}, nil
}

// prepareGraph generates the workload graph for seed, writes it to a
// binary graph file under dir and returns the file's path and the
// graph's fingerprint. The fingerprint of every (workload, seed) is
// recorded the first time it is seen; a later run whose graph differs
// is an error, since its numbers would not describe the same input.
// Every other graph file in dir is removed, to bound the disk used.
func prepareGraph(w workload, seed uint64, dir string) (string, fingerprint, error) {
	g, err := w.generate(seed)
	if err != nil {
		return "", fingerprint{}, fmt.Errorf("generate %s: %w", w.name, err)
	}
	var buf bytes.Buffer
	fp, err := fingerprintOf(g, &buf)
	if err != nil {
		return "", fingerprint{}, err
	}
	stem := fmt.Sprintf("%s-n%d-seed%d", w.name, w.n, seed)
	if err := os.MkdirAll(filepath.Join(dir, "fingerprints"), 0o755); err != nil {
		return "", fingerprint{}, err
	}
	rec := filepath.Join(dir, "fingerprints", stem)
	if old, err := os.ReadFile(rec); err == nil {
		if strings.TrimSpace(string(old)) != fp.String() {
			return "", fingerprint{}, fmt.Errorf("graph fingerprint of %s changed: recorded %s, generated %s",
				stem, strings.TrimSpace(string(old)), fp)
		}
	} else if err := os.WriteFile(rec, []byte(fp.String()+"\n"), 0o644); err != nil {
		return "", fingerprint{}, err
	}

	gdir := filepath.Join(dir, "graphs")
	if err := os.MkdirAll(gdir, 0o755); err != nil {
		return "", fingerprint{}, err
	}
	path := filepath.Join(gdir, stem+".bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", fingerprint{}, err
	}
	stale, _ := filepath.Glob(filepath.Join(gdir, "*.bin")) // the pattern is well formed
	for _, p := range stale {
		if p != path {
			_ = os.Remove(p) // best effort: a leftover file only costs disk
		}
	}
	return path, fp, nil
}
