// Package tzk implements the generalized Thorup–Zwick k-level scheme [44]
// that §6 of the paper poses as future work: "Disco has chosen one point
// in the state/stretch tradeoff space, with O~(sqrt(n)) state and stretch
// <= 3 for packets after the first; can we translate other tradeoff points
// to a distributed setting for name-independent routing?"
//
// This package provides the name-dependent half of the answer as a
// converged data plane: the k-level landmark hierarchy with per-node
// bunches, stretch at most 2k-1 and expected state O~(k·n^(1/k)) — the
// k = 2 instance is exactly the landmark/cluster structure NDDisco and S4
// build on. The tradeoff experiment (eval.TradeoffSweep) measures state
// and stretch across k, reproducing the theory's staircase in simulation.
package tzk

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"disco/internal/dynamics"
	"disco/internal/graph"
	"disco/internal/pathtree"
)

// Scheme is a converged k-level Thorup–Zwick instance.
type Scheme struct {
	G *graph.Graph
	K int

	levels  [][]graph.NodeID // levels[i] = A_i (A_0 = all nodes), descending sets
	inLevel [][]bool         // inLevel[i][v]
	witness [][]graph.NodeID // witness[i][v] = p_i(v), nearest node of A_i
	distA   [][]float64      // distA[i][v] = d(v, A_i)

	// bunch[v] holds d(v,w) for every w in v's bunch B(v).
	bunch []map[graph.NodeID]float64

	dest *pathtree.Lazy // per-fork scratch for route legs and true distances; allocated on first use
}

// New builds the scheme with k levels over g. Levels are sampled with the
// standard probability n^(-1/k) per level; rng drives the sampling.
// k = 1 degenerates to full shortest-path state (stretch 1); k = 2 is the
// Disco/S4 landmark point.
func New(g *graph.Graph, k int, rng *rand.Rand) *Scheme {
	if k < 1 {
		panic("tzk: k must be >= 1")
	}
	n := g.N()
	s := &Scheme{G: g, K: k}
	p := math.Pow(float64(n), -1.0/float64(k))

	// Sample the hierarchy A_0 ⊇ A_1 ⊇ ... ⊇ A_{k-1}; A_k = ∅.
	s.levels = make([][]graph.NodeID, k)
	s.inLevel = make([][]bool, k)
	cur := make([]graph.NodeID, n)
	for i := range cur {
		cur[i] = graph.NodeID(i)
	}
	for i := 0; i < k; i++ {
		s.levels[i] = cur
		s.inLevel[i] = make([]bool, n)
		for _, v := range cur {
			s.inLevel[i][v] = true
		}
		if i == k-1 {
			break
		}
		var next []graph.NodeID
		for _, v := range cur {
			if rng.Float64() < p {
				next = append(next, v)
			}
		}
		if len(next) == 0 {
			// Keep the hierarchy non-empty (w.h.p. unnecessary).
			next = []graph.NodeID{cur[rng.Intn(len(cur))]}
		}
		slices.Sort(next)
		cur = next
	}

	// Witnesses and distances to each level: one multi-source Dijkstra per
	// level.
	sp := graph.NewSSSP(g)
	s.witness = make([][]graph.NodeID, k)
	s.distA = make([][]float64, k)
	for i := 0; i < k; i++ {
		sp.RunMulti(s.levels[i])
		s.witness[i] = make([]graph.NodeID, n)
		s.distA[i] = make([]float64, n)
		for v := 0; v < n; v++ {
			s.witness[i][v] = sp.Source(graph.NodeID(v))
			s.distA[i][v] = sp.Dist(graph.NodeID(v))
		}
	}

	// Bunches: B(v) = ∪_i { w ∈ A_i \ A_{i+1} : d(v,w) < d(v, A_{i+1}) }.
	// Computed from each w's side: w ∈ A_i \ A_{i+1} settles its cluster
	// {v : d(w,v) < d(v, A_{i+1})} with a pruned Dijkstra.
	s.bunch = make([]map[graph.NodeID]float64, n)
	for v := range s.bunch {
		s.bunch[v] = make(map[graph.NodeID]float64)
	}
	for i := 0; i < k; i++ {
		var bound []float64
		if i+1 < k {
			bound = s.distA[i+1]
		}
		for _, w := range s.levels[i] {
			if i+1 < k && s.inLevel[i+1][w] {
				continue // w ∈ A_{i+1}: not at this level's fringe
			}
			s.clusterFrom(w, bound)
		}
	}
	return s
}

// Fork returns a concurrency view of s for one worker of a parallel
// sweep: the converged hierarchy, witnesses and bunches are shared
// read-only; only the shortest-path scratch (used to materialize routes) is
// private. Forks route concurrently and return exactly the routes the
// original would.
func (s *Scheme) Fork() *Scheme {
	f := *s
	f.dest = nil
	return &f
}

// destTree returns the fork's shortest-path scratch bound to root,
// allocating it on first use.
func (s *Scheme) destTree(root graph.NodeID) *pathtree.Lazy {
	if s.dest == nil {
		s.dest = pathtree.NewLazy(s.G)
	}
	s.dest.Bind(root)
	return s.dest
}

// clusterFrom runs the pruned Dijkstra of [44]: from w, settle exactly the
// nodes v with d(w,v) < bound[v] (bound nil = no bound, top level) and add
// w to their bunches.
func (s *Scheme) clusterFrom(w graph.NodeID, bound []float64) {
	dist := map[graph.NodeID]float64{w: 0}
	settled := map[graph.NodeID]bool{}
	var heap graph.Heap
	heap.Push(0, w)
	for heap.Len() > 0 {
		d, v := heap.Pop()
		if settled[v] || d != dist[v] {
			continue
		}
		settled[v] = true
		s.bunch[v][w] = d
		for _, e := range s.G.Neighbors(v) {
			nd := d + e.Weight
			if bound != nil && nd >= bound[e.To] {
				continue // prune: w won't be in e.To's bunch via this path
			}
			if old, ok := dist[e.To]; !ok || nd < old {
				dist[e.To] = nd
				heap.Push(nd, e.To)
			}
		}
	}
}

// Dist returns the oracle's distance estimate and the intermediate node w
// the route passes through (the standard bunch-walk): guaranteed estimate
// <= (2k-1) · d(u,v).
func (s *Scheme) Dist(u, v graph.NodeID) (float64, graph.NodeID) {
	w := u
	for i := 0; ; i++ {
		if d, ok := s.bunch[v][w]; ok {
			return s.bunchDist(u, w) + d, w
		}
		i2 := i + 1
		if i2 >= s.K {
			// Top level: witness is in everyone's bunch by construction.
			w = s.witness[s.K-1][u]
			du := s.distA[s.K-1][u]
			dv, ok := s.bunch[v][w]
			if !ok {
				panic(fmt.Sprintf("tzk: top-level witness %d missing from bunch of %d", w, v))
			}
			return du + dv, w
		}
		u, v = v, u
		w = s.witness[i2][u]
	}
}

// bunchDist returns d(u,w) for w known to u (bunch member or witness).
func (s *Scheme) bunchDist(u, w graph.NodeID) float64 {
	if u == w {
		return 0
	}
	if d, ok := s.bunch[u][w]; ok {
		return d
	}
	for i := 0; i < s.K; i++ {
		if s.witness[i][u] == w {
			return s.distA[i][u]
		}
	}
	panic(fmt.Sprintf("tzk: node %d does not know %d", u, w))
}

// Route materializes the stretch-(2k-1) route u ⇝ w ⇝ v (each leg a
// shortest path, as the converged routing tables would forward).
func (s *Scheme) Route(u, v graph.NodeID) []graph.NodeID {
	_, w := s.Dist(u, v)
	d := s.destTree(w)
	return dynamics.AppendJoin(d.PathFrom(u), 0, d.PathTo(v)) // u ⇝ w, then w ⇝ v
}

// TrueDist returns the exact shortest-path distance (for stretch
// accounting).
func (s *Scheme) TrueDist(u, v graph.NodeID) float64 {
	return s.destTree(v).Dist(u)
}

// StateEntries returns per-node entry counts: bunch entries plus one
// witness per level.
func (s *Scheme) StateEntries() []int {
	out := make([]int, s.G.N())
	for v := range out {
		out[v] = len(s.bunch[v]) + s.K
	}
	return out
}
