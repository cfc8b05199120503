// Package topology generates the network topologies of the paper's
// evaluation (§5.1): G(n,m) uniform random graphs, geometric random graphs
// with Euclidean link latencies, and synthetic Internet-like (AS-level and
// router-level) power-law graphs standing in for the CAIDA maps, plus the
// adversarial constructions used in tests (ring, star, grid, and the
// two-level tree of the paper's footnote 6 on which S4 needs Θ(n) state).
//
// Every generator takes an explicit *rand.Rand so topologies are exactly
// reproducible, and every generator returns a connected, Finalized graph.
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"disco/internal/graph"
)

// edgeKey canonically identifies an undirected node pair.
func edgeKey(u, v graph.NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// Gnm returns a connected G(n,m)-style uniform random graph with unit edge
// weights. Connectivity is guaranteed by first building a uniform random
// spanning tree (random attachment order) and then adding m-(n-1) distinct
// uniform random extra edges; the paper's G(n,m) graphs use m = 4n for an
// average degree of 8. It panics if m < n-1 or m exceeds the complete graph.
func Gnm(rng *rand.Rand, n, m int) *graph.Graph {
	if n < 1 {
		panic("topology: Gnm needs n >= 1")
	}
	maxM := n * (n - 1) / 2
	if m < n-1 || m > maxM {
		panic(fmt.Sprintf("topology: Gnm m=%d out of [n-1=%d, %d]", m, n-1, maxM))
	}
	g := graph.New(n)
	seen := make(map[uint64]bool, m)
	// Random spanning tree: attach each node (in random order) to a random
	// already-attached node.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := graph.NodeID(perm[i])
		v := graph.NodeID(perm[rng.Intn(i)])
		g.AddEdge(u, v, 1)
		seen[edgeKey(u, v)] = true
	}
	for g.M() < m {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v || seen[edgeKey(u, v)] {
			continue
		}
		seen[edgeKey(u, v)] = true
		g.AddEdge(u, v, 1)
	}
	g.Finalize()
	return g
}

// GnmAvgDeg returns Gnm with m chosen for the given average degree
// (m = n*avgDeg/2), the paper's parameterization ("with m set so that the
// average degree is 8").
func GnmAvgDeg(rng *rand.Rand, n int, avgDeg float64) *graph.Graph {
	return Gnm(rng, n, int(float64(n)*avgDeg/2))
}

// Geometric returns a connected geometric random graph: n points uniform in
// the unit square, an edge between every pair at Euclidean distance < r
// where r = sqrt(avgDeg/(pi*n)), and edge weights equal to the Euclidean
// distance — the paper's latency-annotated topology (§5.1, §5.2 "the
// geometric random graph includes link latencies"). Any secondary components
// are attached to the largest one through their geometrically closest node
// pair (weight = that distance), preserving both n and metric weights.
func Geometric(rng *rand.Rand, n int, avgDeg float64) *graph.Graph {
	if n < 1 {
		panic("topology: Geometric needs n >= 1")
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	r := math.Sqrt(avgDeg / (math.Pi * float64(n)))
	g := graph.New(n)

	// Grid bucketing: cells of side r; only neighboring cells can hold
	// nodes within range.
	cells := int(math.Ceil(1 / r))
	if cells < 1 {
		cells = 1
	}
	bucket := make(map[int][]graph.NodeID)
	cellOf := func(i int) int {
		cx := int(xs[i] / r)
		cy := int(ys[i] / r)
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cy*cells + cx
	}
	for i := 0; i < n; i++ {
		bucket[cellOf(i)] = append(bucket[cellOf(i)], graph.NodeID(i))
	}
	dist := func(a, b graph.NodeID) float64 {
		dx := xs[a] - xs[b]
		dy := ys[a] - ys[b]
		return math.Hypot(dx, dy)
	}
	for i := 0; i < n; i++ {
		u := graph.NodeID(i)
		cx := int(xs[i] / r)
		cy := int(ys[i] / r)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || ny < 0 || nx >= cells || ny >= cells {
					continue
				}
				for _, v := range bucket[ny*cells+nx] {
					if v <= u {
						continue // each pair once
					}
					if d := dist(u, v); d < r && d > 0 {
						g.AddEdge(u, v, d)
					}
				}
			}
		}
	}

	// Stitch secondary components onto the largest by closest pair.
	label, count := g.Components()
	for count > 1 {
		sizes := make([]int, count)
		for _, c := range label {
			sizes[c]++
		}
		big := 0
		for c, s := range sizes {
			if s > sizes[big] {
				big = c
			}
		}
		// For each other component, find its closest node pair to the big
		// component (O(n^2) worst case; components are tiny in practice).
		var members [][]graph.NodeID
		members = make([][]graph.NodeID, count)
		for i, c := range label {
			members[c] = append(members[c], graph.NodeID(i))
		}
		for c := 0; c < count; c++ {
			if c == big {
				continue
			}
			bu, bv := graph.None, graph.None
			bd := math.Inf(1)
			for _, u := range members[c] {
				for _, v := range members[big] {
					if d := dist(u, v); d < bd {
						bd, bu, bv = d, u, v
					}
				}
			}
			g.AddEdge(bu, bv, bd)
		}
		label, count = g.Components()
	}
	g.Finalize()
	return g
}

// prefAttach builds a preferential-attachment graph: each new node attaches
// to `per` distinct existing nodes chosen proportionally to current degree
// (via the repeated-endpoint trick). Unit edge weights.
func prefAttach(rng *rand.Rand, n, per int) *graph.Graph {
	if n < per+1 {
		panic(fmt.Sprintf("topology: prefAttach needs n > per (n=%d per=%d)", n, per))
	}
	g := graph.New(n)
	// endpoints holds one entry per edge endpoint: sampling uniformly from
	// it is degree-proportional sampling.
	endpoints := make([]graph.NodeID, 0, 2*n*per)
	seen := make(map[uint64]bool)
	// Seed clique of per+1 nodes.
	for u := 0; u <= per; u++ {
		for v := u + 1; v <= per; v++ {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1)
			seen[edgeKey(graph.NodeID(u), graph.NodeID(v))] = true
			endpoints = append(endpoints, graph.NodeID(u), graph.NodeID(v))
		}
	}
	for u := per + 1; u < n; u++ {
		added := 0
		for added < per {
			var v graph.NodeID
			if len(endpoints) == 0 {
				v = graph.NodeID(rng.Intn(u))
			} else {
				v = endpoints[rng.Intn(len(endpoints))]
			}
			if v == graph.NodeID(u) || seen[edgeKey(graph.NodeID(u), v)] {
				// Fall back to uniform if the degree distribution is so
				// skewed we keep re-hitting the same hub.
				v = graph.NodeID(rng.Intn(u))
				if v == graph.NodeID(u) || seen[edgeKey(graph.NodeID(u), v)] {
					continue
				}
			}
			g.AddEdge(graph.NodeID(u), v, 1)
			seen[edgeKey(graph.NodeID(u), v)] = true
			endpoints = append(endpoints, graph.NodeID(u), v)
			added++
		}
	}
	g.Finalize()
	return g
}

// ASLike returns a synthetic stand-in for the paper's 30,610-node AS-level
// Internet map [49]: a preferential-attachment power-law graph (2 edges per
// new node, average degree ~4) with unit weights. See DESIGN.md §3 for why
// this substitution preserves the evaluated behaviour (heavy-tailed hubs
// blow up S4's clusters; unweighted links cap stretch).
func ASLike(rng *rand.Rand, n int) *graph.Graph {
	return prefAttach(rng, n, 2)
}

// RouterLike returns a synthetic stand-in for the paper's 192,244-node
// router-level Internet map [48]: preferential attachment with 3 edges per
// new node (average degree ~6) plus a 10% fringe of degree-1 stub routers,
// mimicking the hub-and-stub structure of router maps. Unit weights.
func RouterLike(rng *rand.Rand, n int) *graph.Graph {
	stubs := n / 10
	core := n - stubs
	g0 := prefAttach(rng, core, 3)
	g := graph.New(n)
	for u := 0; u < core; u++ {
		for _, e := range g0.Neighbors(graph.NodeID(u)) {
			if e.To > graph.NodeID(u) {
				g.AddEdge(graph.NodeID(u), e.To, 1)
			}
		}
	}
	for s := core; s < n; s++ {
		g.AddEdge(graph.NodeID(s), graph.NodeID(rng.Intn(core)), 1)
	}
	g.Finalize()
	return g
}

// Ring returns an n-cycle with unit weights: the worst case for explicit
// route length (§4.2: "as much as O~(sqrt(n)) bits in a ring network").
//
//disco:fixture small exact shapes the addr, dynamics, pathtree, static, tzk, vicinity and vrr tests build on
func Ring(n int) *graph.Graph {
	if n < 3 {
		panic("topology: Ring needs n >= 3")
	}
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), 1)
	}
	g.Finalize()
	return g
}

// Line returns an n-node path graph with unit weights.
//
//disco:fixture small exact shapes the addr, pathtree, pathvector and vicinity tests build on
func Line(n int) *graph.Graph {
	if n < 2 {
		panic("topology: Line needs n >= 2")
	}
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g.Finalize()
	return g
}

// Star returns a star with n-1 leaves attached to node 0, unit weights.
//
//disco:fixture a hub shape the pathtree tests build on
func Star(n int) *graph.Graph {
	if n < 2 {
		panic("topology: Star needs n >= 2")
	}
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, graph.NodeID(i), 1)
	}
	g.Finalize()
	return g
}

// Grid returns a rows x cols grid with unit weights.
//
//disco:fixture a many-ties shape the pathtree and vicinity tests build on
func Grid(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1), 1)
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c), 1)
			}
		}
	}
	g.Finalize()
	return g
}

// S4WorstTree returns the two-level tree of the paper's footnote 6: a root
// with k children at distance 1, each child with k children (grandchildren)
// along edges of distance 2. With uniform-random landmarks most
// grandchildren end up in the root's S4 cluster, forcing Θ(n) state at the
// root, while Disco's fixed-size vicinities stay bounded. Node 0 is the
// root; nodes 1..k are children; the rest are grandchildren.
//
//disco:fixture the s4 tests reproduce footnote 6 on it
func S4WorstTree(k int) *graph.Graph {
	if k < 1 {
		panic("topology: S4WorstTree needs k >= 1")
	}
	n := 1 + k + k*k
	g := graph.New(n)
	for c := 1; c <= k; c++ {
		g.AddEdge(0, graph.NodeID(c), 1)
		for j := 0; j < k; j++ {
			gc := 1 + k + (c-1)*k + j
			g.AddEdge(graph.NodeID(c), graph.NodeID(gc), 2)
		}
	}
	g.Finalize()
	return g
}
