// Package spr is the shortest-path-routing baseline (the paper's "path
// vector" comparison protocol, §5.1): every node stores a route to every
// destination, Ω(n) state, stretch 1. It anchors the congestion comparison
// (Figs. 4, 5, 10) and the messaging curve of Fig. 8.
package spr

import (
	"disco/internal/graph"
	"disco/internal/pathtree"
	"disco/internal/static"
)

// SPR is the converged shortest-path data plane. Routes are read off a
// lazy single-root Dijkstra view rather than materialized trees:
// destination roots in the congestion sweeps are queried once each, so a
// tree cache would allocate O(n) per route for a single lookup.
type SPR struct {
	Env  *static.Env
	dest *pathtree.Lazy
}

// New builds the baseline over env.
func New(env *static.Env) *SPR {
	return &SPR{Env: env, dest: pathtree.NewLazy(env.G)}
}

// Fork returns a concurrency view of p for one worker of a parallel
// sweep: the environment is shared, the Dijkstra scratch is private.
func (p *SPR) Fork() *SPR {
	return &SPR{Env: p.Env, dest: pathtree.NewLazy(p.Env.G)}
}

// Route returns the (deterministically tie-broken) shortest path s ⇝ t.
func (p *SPR) Route(s, t graph.NodeID) []graph.NodeID {
	p.dest.Bind(t)
	return p.dest.PathFrom(s)
}

// StateEntries returns the per-node entry count: one route per destination
// (n-1) plus per-neighbor adjacency.
func (p *SPR) StateEntries() []int {
	n := p.Env.N()
	out := make([]int, n)
	for v := 0; v < n; v++ {
		out[v] = n - 1 + p.Env.G.Degree(graph.NodeID(v))
	}
	return out
}
