// Package static implements the shared post-convergence environment of the
// paper's "static simulator" (§5.1): for topologies too large for full
// event-driven simulation, it "calculates the post-convergence state of the
// network" directly. Env holds everything all protocols agree on — the
// graph, flat names and their hashes, per-node estimates of n, the landmark
// set and the landmark shortest-path forest (every node's nearest landmark
// and distance), from which a node's address (nearest landmark + explicit
// route) is built on demand.
// The protocol packages (core, s4, vrr, spr) build their routing state on
// top of an Env, which also makes cross-protocol comparisons use identical
// landmarks and names.
package static

import (
	"disco/internal/addr"
	"disco/internal/estimate"
	"disco/internal/graph"
	"disco/internal/landmark"
	"disco/internal/metrics"
	"disco/internal/names"
)

// Env is the converged global environment shared by all protocols.
type Env struct {
	G      *graph.Graph
	Names  []names.Name
	Hashes []names.Hash
	NEst   []float64 // per-node estimate of n (§4.1); Exact by default

	Landmarks []graph.NodeID
	IsLM      []bool
	LMOf      []graph.NodeID // nearest landmark l_v (ties to lowest landmark ID)
	LMDist    []float64      // d(v, l_v)
	lmParent  []graph.NodeID // predecessor on the path l_v ⇝ v
}

// Option customizes NewEnv.
type Option func(*options)

type options struct {
	nEst      []float64
	landmarks []graph.NodeID
}

// WithNEst supplies per-node estimates of n (e.g. from
// estimate.InjectError). Defaults to the exact n at every node.
func WithNEst(nEst []float64) Option {
	return func(o *options) { o.nEst = nEst }
}

// WithLandmarks overrides landmark selection with an explicit set — the §6
// discussion notes operators may choose landmarks non-randomly; tests use
// this for adversarial placements.
func WithLandmarks(lms []graph.NodeID) Option {
	return func(o *options) { o.landmarks = lms }
}

// NewEnv builds the environment: names from nameSeed, landmark
// self-selection under each node's estimate of n, and the landmark forest,
// from which AddrOf builds any node's address. The graph must be connected
// and Finalized.
func NewEnv(g *graph.Graph, nameSeed int64, opts ...Option) *Env {
	gen := names.NewGenerator(nameSeed)
	return NewEnvWithNames(g, gen.Names(g.N()), opts...)
}

// NewEnvWithNames is NewEnv with caller-supplied flat names (one per
// node) — the public API path, where applications pick the names.
func NewEnvWithNames(g *graph.Graph, nodeNames []names.Name, opts ...Option) *Env {
	var o options
	for _, f := range opts {
		f(&o)
	}
	n := g.N()
	e := &Env{G: g}
	e.Names = nodeNames
	e.Hashes = make([]names.Hash, n)
	for i, nm := range e.Names {
		e.Hashes[i] = names.HashOf(nm)
	}
	if o.nEst != nil {
		e.NEst = o.nEst
	} else {
		e.NEst = estimate.Exact(n)
	}
	if o.landmarks != nil {
		e.Landmarks = o.landmarks
	} else {
		e.Landmarks = landmark.SelectPerNode(e.Names, e.NEst)
	}
	e.IsLM = make([]bool, n)
	for _, lm := range e.Landmarks {
		e.IsLM[lm] = true
	}

	// Landmark forest: one multi-source Dijkstra.
	s := graph.NewSSSP(g)
	s.RunMulti(e.Landmarks)
	e.LMOf = make([]graph.NodeID, n)
	e.LMDist = make([]float64, n)
	e.lmParent = make([]graph.NodeID, n)
	for v := 0; v < n; v++ {
		e.LMOf[v] = s.Source(graph.NodeID(v))
		e.LMDist[v] = s.Dist(graph.NodeID(v))
		e.lmParent[v] = s.Parent(graph.NodeID(v))
	}
	return e
}

// LandmarkPath returns the node path l_v ⇝ v from the landmark forest.
func (e *Env) LandmarkPath(v graph.NodeID) []graph.NodeID {
	var rev []graph.NodeID
	for u := v; u != graph.None; u = e.lmParent[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// AddrOf returns v's address, l_v and the explicit route l_v ⇝ v, built
// from the landmark forest on each call.
func (e *Env) AddrOf(v graph.NodeID) addr.Address { return addr.Make(e.G, e.LandmarkPath(v)) }

// N returns the network size.
func (e *Env) N() int { return e.G.N() }

// NameOf returns v's flat name.
func (e *Env) NameOf(v graph.NodeID) names.Name { return e.Names[v] }

// HashOf returns h(name(v)).
func (e *Env) HashOf(v graph.NodeID) names.Hash { return e.Hashes[v] }

// AddrSizeStats returns the distribution of explicit-route sizes in bytes
// over all node addresses — the §4.2 measurement (on the paper's
// router-level map: mean 2.93 B, 95th percentile 5 B, max 10.625 B).
func (e *Env) AddrSizeStats() (mean, p95, max float64) {
	if e.N() == 0 {
		return 0, 0, 0
	}
	sizes := make([]float64, e.N())
	total := 0.0
	for v := range sizes {
		sizes[v] = float64(e.AddrOf(graph.NodeID(v)).Bits()) / 8
		total += sizes[v]
	}
	// The mean sums in node order; p95 is nearest-rank.
	cdf := metrics.NewCDF(sizes)
	return total / float64(len(sizes)), cdf.Quantile(0.95), cdf.Max()
}
