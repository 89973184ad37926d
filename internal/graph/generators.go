package graph

import (
	"fmt"
	"slices"

	"subsim/internal/rng"
)

// This file implements the synthetic social-network generators that stand
// in for the paper's Pokec/Orkut/Twitter/Friendster datasets (see the
// substitution table in DESIGN.md). Preferential attachment reproduces
// the heavy-tailed degree distribution that drives the relative behaviour
// of the algorithms; Erdős–Rényi provides a homogeneous control; the
// deterministic topologies (ring, line, star, complete) have closed-form
// influence and anchor the correctness tests.

// GenErdosRenyi samples a directed G(n, m) graph: m distinct directed
// edges (no self-loops) chosen uniformly at random. Edge probabilities
// are initialised to 0; assign a weight model afterwards. It returns an
// error if m exceeds the number of possible edges n(n-1).
func GenErdosRenyi(n int, m int64, r *rng.Source) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	maxEdges := int64(n) * int64(n-1)
	if m < 0 || m > maxEdges {
		return nil, fmt.Errorf("graph: G(%d,m) supports 0 <= m <= %d, got %d", n, maxEdges, m)
	}
	b := NewBuilder(n)
	seen := make(map[int64]struct{}, m)
	for int64(b.NumEdges()) < m {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u == v {
			continue
		}
		key := int64(u)*int64(n) + int64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		if err := b.AddEdge(u, v, 0); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// GenPreferentialAttachment grows a Barabási–Albert-style scale-free
// graph: nodes arrive one at a time and attach to deg existing nodes
// chosen proportionally to their current degree (with an initial clique
// of deg+1 nodes). When undirected is true both directions of every
// attachment are added, mimicking the paper's undirected Orkut and
// Friendster datasets; otherwise only the edge from the new node to the
// chosen target is added plus the reverse with probability 0.5, giving a
// skewed directed network like Pokec/Twitter.
//
// Edge probabilities are initialised to 0; assign a weight model
// afterwards.
func GenPreferentialAttachment(n, deg int, undirected bool, r *rng.Source) (*Graph, error) {
	if deg < 1 {
		return nil, fmt.Errorf("graph: attachment degree must be >= 1, got %d", deg)
	}
	if n < deg+1 {
		return nil, fmt.Errorf("graph: need at least deg+1=%d nodes, got %d", deg+1, n)
	}
	b := NewBuilder(n)
	// targets holds one entry per edge endpoint; sampling uniformly from
	// it is sampling nodes proportionally to degree.
	targets := make([]int32, 0, 2*int64(n)*int64(deg))
	// Seed clique over the first deg+1 nodes.
	for u := int32(0); u <= int32(deg); u++ {
		for v := u + 1; v <= int32(deg); v++ {
			if err := b.AddUndirected(u, v, 0); err != nil {
				return nil, err
			}
			targets = append(targets, u, v)
		}
	}
	// picked keeps a node's distinct targets in draw order, so the
	// reverse-edge coin flips and the attachment list below follow the
	// seed alone. deg is small, so the duplicate check is a linear scan.
	picked := make([]int32, 0, deg)
	for u := int32(deg) + 1; u < int32(n); u++ {
		picked = picked[:0]
		for len(picked) < deg {
			t := targets[r.Intn(len(targets))]
			if t == u || slices.Contains(picked, t) {
				continue
			}
			picked = append(picked, t)
		}
		for _, t := range picked {
			if undirected {
				if err := b.AddUndirected(u, t, 0); err != nil {
					return nil, err
				}
			} else {
				if err := b.AddEdge(u, t, 0); err != nil {
					return nil, err
				}
				if r.Bernoulli(0.5) {
					if err := b.AddEdge(t, u, 0); err != nil {
						return nil, err
					}
				}
			}
			targets = append(targets, u, t)
		}
	}
	return b.Build(), nil
}

// GenLine returns the directed path 0 -> 1 -> ... -> n-1 with every edge
// carrying probability p. Under IC the expected influence of node 0 is
// the closed form Σ_{i=0}^{n-1} p^i, which the tests exploit.
func GenLine(n int, p float64) *Graph {
	b := NewBuilder(n)
	for v := int32(0); v+1 < int32(n); v++ {
		if err := b.AddEdge(v, v+1, p); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// GenRing returns the directed cycle 0 -> 1 -> ... -> n-1 -> 0 with every
// edge carrying probability p.
func GenRing(n int, p float64) *Graph {
	if n < 2 {
		return NewBuilder(n).Build()
	}
	b := NewBuilder(n)
	for v := int32(0); v < int32(n); v++ {
		if err := b.AddEdge(v, (v+1)%int32(n), p); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// GenStar returns a star with node 0 at the centre and directed edges
// from the centre to every leaf, each with probability p. The expected
// influence of node 0 is 1 + (n-1)p.
func GenStar(n int, p float64) *Graph {
	b := NewBuilder(n)
	for v := int32(1); v < int32(n); v++ {
		if err := b.AddEdge(0, v, p); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// GenComplete returns the complete directed graph on n nodes with every
// edge carrying probability p.
func GenComplete(n int, p float64) *Graph {
	b := NewBuilder(n)
	for u := int32(0); u < int32(n); u++ {
		for v := int32(0); v < int32(n); v++ {
			if u == v {
				continue
			}
			if err := b.AddEdge(u, v, p); err != nil {
				panic(err)
			}
		}
	}
	return b.Build()
}

// GenBipartiteOut returns a graph where each of the first l nodes has
// directed edges to all of the following r nodes, each with probability
// p. It is the canonical max-coverage test topology.
func GenBipartiteOut(l, r int, p float64) *Graph {
	b := NewBuilder(l + r)
	for u := int32(0); u < int32(l); u++ {
		for v := int32(l); v < int32(l+r); v++ {
			if err := b.AddEdge(u, v, p); err != nil {
				panic(err)
			}
		}
	}
	return b.Build()
}
