// Package graph provides the weighted undirected graph substrate used by
// every routing protocol in this repository, together with the shortest-path
// machinery (full, truncated, radius-bounded and multi-source Dijkstra) that
// the static simulator is built on.
//
// Graphs are node-indexed (NodeID 0..n-1) and simple: no self-loops, at
// most one link per pair, and every link distance ("link latencies or
// costs" in the paper's terms, §4.1) positive and finite. A graph that
// breaks this is refused where it is built — AddEdge, Finalize and
// WithEdges panic — which is a harness invariant: disco.Builder and
// snapshot.ApplyRecoveries return the caller input they refuse as errors.
// All iteration orders are deterministic: adjacency lists are sorted by
// neighbor ID and ties in Dijkstra are broken by node ID, so every
// simulation result in this repository is exactly reproducible.
//
// Three of the paper's four topologies are unweighted, so SSSP has two
// kernels behind one API: a binary-heap Dijkstra, and a level-synchronous
// search for graphs Finalize found to be unit-weight. Which one runs is a
// property of the graph and never of a setting; both produce the same
// settle order, distances, parents and sources (see SSSP.run).
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// NodeID identifies a node in a Graph. IDs are dense: 0..N()-1.
type NodeID int32

// None is the sentinel "no node" value used in parent arrays.
const None NodeID = -1

// Edge is one directed half of an undirected link as seen from its owning
// adjacency list.
type Edge struct {
	To     NodeID  // neighbor
	EID    int32   // undirected edge index, 0..M()-1, shared by both halves
	Weight float64 // link distance (> 0, finite)
}

// Graph is a weighted undirected graph. The zero value is an empty graph;
// use New to create one with a fixed node count.
//
// A graph is built, then sealed. While it is being built, adj holds one
// separately grown row per node. Finalize replaces those with the flat
// layout every reader runs on: all rows sorted by neighbor and laid back
// to back in edges, row v being edges[off[v]:off[v+1]]. From then on the
// graph never changes — AddEdge panics — so a finalized graph can be
// shared by every snapshot, fork and serve epoch that routes on it; a
// changed topology is a new graph (WithEdges, WithoutEdges). One
// convention is left to callers: Neighbors returns a sub-slice of the flat
// edge array, which must not be written.
type Graph struct {
	n, m   int
	adj    [][]Edge // construction layout; nil once finalized
	edges  []Edge   // flat layout; nil until finalized
	off    []int32  // n+1 row offsets into edges
	sorted bool
	unit   bool // finalized, and every weight is exactly 1 (see SSSP.run)
}

// New returns a graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{n: n, adj: make([][]Edge, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// AddEdge adds an undirected edge between u and v with weight w and returns
// its edge index. It panics on a finalized graph, self-loops, out-of-range
// endpoints, or weights that are not positive and finite; a second link
// between the same pair panics when Finalize lays the rows out.
func (g *Graph) AddEdge(u, v NodeID, w float64) int32 {
	if g.sorted {
		panic("graph: AddEdge on a finalized graph")
	}
	g.checkEdge(u, v, w)
	id := int32(g.m)
	g.adj[u] = append(g.adj[u], Edge{To: v, EID: id, Weight: w})
	g.adj[v] = append(g.adj[v], Edge{To: u, EID: id, Weight: w})
	g.m++
	return id
}

// checkEdge panics on the links AddEdge and WithEdges refuse (a harness
// invariant, see the package comment). A weight must be finite, since SSSP
// never relaxes a NaN link and its far end would read unreachable on a
// connected graph, and positive, since shortest-path trees settle in
// (distance, node ID) order and a zero-weight link breaks that.
func (g *Graph) checkEdge(u, v NodeID, w float64) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if int(u) < 0 || int(u) >= g.n || int(v) < 0 || int(v) >= g.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, g.n))
	}
	if !(w > 0) || math.IsInf(w, 1) {
		panic(fmt.Sprintf("graph: weight %v on edge (%d,%d) is not positive and finite", w, u, v))
	}
}

// Neighbors returns the adjacency list of v. The returned slice is owned by
// the graph — on a finalized graph, a sub-slice of its flat edge array,
// shared with every reader — and must not be modified.
func (g *Graph) Neighbors(v NodeID) []Edge {
	if !g.sorted {
		return g.adj[v]
	}
	return g.edges[g.off[v]:g.off[v+1]]
}

// Degree returns the number of incident edges of v.
func (g *Graph) Degree(v NodeID) int { return len(g.Neighbors(v)) }

// byNeighbor is the row order: neighbor ID.
func byNeighbor(a, b Edge) int { return cmp.Compare(a.To, b.To) }

// allUnit reports whether every weight is exactly 1.
func allUnit(edges []Edge) bool {
	for _, e := range edges {
		if e.Weight != 1 {
			return false
		}
	}
	return true
}

// Finalize sorts every adjacency list by neighbor ID, lays the rows out
// flat, and records whether the graph is unit-weight. It panics where a
// row names a neighbor twice: two links join the same pair (a harness
// invariant, see the package comment). It must be called after
// construction and before PortOf, reading a port out of Neighbors, or any
// shortest-path computation; the topology generators call it for you.
func (g *Graph) Finalize() {
	if g.sorted {
		return
	}
	if 2*g.m > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d edges overflow the int32 row offsets", g.m))
	}
	edges := make([]Edge, 0, 2*g.m)
	off := make([]int32, g.n+1)
	for v, es := range g.adj {
		edges = append(edges, es...)
		row := edges[off[v]:]
		slices.SortFunc(row, byNeighbor)
		for i := 1; i < len(row); i++ {
			if row[i].To == row[i-1].To {
				panic(fmt.Sprintf("graph: two links join nodes %d and %d", v, row[i].To))
			}
		}
		off[v+1] = int32(len(edges))
	}
	g.adj, g.edges, g.off = nil, edges, off
	g.sorted, g.unit = true, allUnit(edges)
}

// Finalized reports whether Finalize has been called: whether the graph
// is sealed.
func (g *Graph) Finalized() bool { return g.sorted }

// Unit reports whether the graph is finalized and every weight is exactly
// 1, which is what puts SSSP on its level kernel (and lets a search be
// paused between levels, see SSSP.Begin).
func (g *Graph) Unit() bool { return g.unit }

// PortOf returns the index ("port number") of neighbor `to` within u's
// sorted adjacency list, or -1 if the edge does not exist. Ports are the
// per-hop labels of the paper's explicit-route address format (§4.2): a hop
// at a node of degree d is encoded in ceil(log2 d) bits as this index. The
// search is a plain binary search of the sorted row: the compact snapshot
// encoder asks once per forest field.
func (g *Graph) PortOf(u, to NodeID) int {
	if !g.sorted {
		panic("graph: PortOf before Finalize")
	}
	es := g.Neighbors(u)
	lo, hi := 0, len(es)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); es[mid].To < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(es) && es[lo].To == to {
		return lo
	}
	return -1
}

// EdgeWeight returns the weight of the edge between u and v, or -1 if the
// nodes are not adjacent.
func (g *Graph) EdgeWeight(u, v NodeID) float64 {
	if e, ok := g.edge(u, v); ok {
		return e.Weight
	}
	return -1
}

// EdgeID returns the undirected edge index between u and v, or -1 if the
// nodes are not adjacent.
func (g *Graph) EdgeID(u, v NodeID) int32 {
	if e, ok := g.edge(u, v); ok {
		return e.EID
	}
	return -1
}

// edge returns the link between u and v as listed in the shorter of the two
// rows. Both halves of a link carry its weight and EID, so either row
// answers, and the shorter keeps a hub's row out of PathLength's searches.
// Ports are u's labels: PortOf searches u's row whatever its length. A
// node outside the graph, at either end, is adjacent to nothing.
func (g *Graph) edge(u, v NodeID) (Edge, bool) {
	if uint(u) >= uint(g.n) || uint(v) >= uint(g.n) {
		return Edge{}, false
	}
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	if p := g.PortOf(u, v); p >= 0 {
		return g.Neighbors(u)[p], true
	}
	return Edge{}, false
}

// PathLength returns the total weight of the node path (consecutive nodes
// must be adjacent; it panics otherwise, since a broken path is always a
// protocol bug in this codebase).
func (g *Graph) PathLength(path []NodeID) float64 {
	total := 0.0
	for i := 1; i < len(path); i++ {
		w := g.EdgeWeight(path[i-1], path[i])
		if w < 0 {
			panic(fmt.Sprintf("graph: path step %d: nodes %d,%d not adjacent", i, path[i-1], path[i]))
		}
		total += w
	}
	return total
}

// Components returns the connected component label of every node and the
// number of components. Labels are 0-based in order of first appearance.
func (g *Graph) Components() (label []int32, count int) {
	label = make([]int32, g.N())
	for i := range label {
		label[i] = -1
	}
	var queue []NodeID
	for s := 0; s < g.N(); s++ {
		if label[s] >= 0 {
			continue
		}
		c := int32(count)
		count++
		label[s] = c
		queue = append(queue[:0], NodeID(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range g.Neighbors(u) {
				if label[e.To] < 0 {
					label[e.To] = c
					queue = append(queue, e.To)
				}
			}
		}
	}
	return label, count
}

// Connected reports whether the graph has exactly one connected component
// (the paper assumes a connected network, §4.1).
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return true
	}
	_, c := g.Components()
	return c == 1
}

// EdgeKey names one undirected link by its endpoints. Use Norm to
// canonicalize before comparing or deduplicating: the (U,V) and (V,U)
// spellings denote the same link.
type EdgeKey struct{ U, V NodeID }

// Norm returns the canonical spelling with U <= V.
func (e EdgeKey) Norm() EdgeKey {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Bridges reports, indexed by edge ID, whether each undirected edge is a
// bridge — an edge whose removal disconnects its component. Computed with
// one iterative lowpoint DFS (O(n+m), no recursion, so router-level graphs
// don't blow the goroutine stack). The dynamics experiments use
// this to fail "random non-bridge links" without silently partitioning the
// network.
func (g *Graph) Bridges() []bool {
	n := g.N()
	bridge := make([]bool, g.m)
	disc := make([]int32, n) // 0 = unvisited; else discovery time + 1
	low := make([]int32, n)
	// Explicit DFS stack: one frame per node on the current path, holding
	// the adjacency cursor and the edge used to enter.
	type frame struct {
		v      NodeID
		inEdge int32 // EID of the tree edge into v, -1 at a root
		next   int   // next adjacency index to scan
	}
	var stack []frame
	time := int32(0)
	for root := 0; root < n; root++ {
		if disc[root] != 0 {
			continue
		}
		time++
		disc[root], low[root] = time, time
		stack = append(stack[:0], frame{v: NodeID(root), inEdge: -1})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if row := g.Neighbors(f.v); f.next < len(row) {
				e := row[f.next]
				f.next++
				if e.EID == f.inEdge {
					continue // don't walk the entry edge back up
				}
				if disc[e.To] != 0 {
					if disc[e.To] < low[f.v] {
						low[f.v] = disc[e.To] // back edge
					}
					continue
				}
				time++
				disc[e.To], low[e.To] = time, time
				stack = append(stack, frame{v: e.To, inEdge: e.EID})
				continue
			}
			// f.v is fully explored: fold its lowpoint into the parent and
			// classify the tree edge.
			v := f.v
			in := f.inEdge
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				continue
			}
			p := &stack[len(stack)-1]
			if low[v] < low[p.v] {
				low[p.v] = low[v]
			}
			if low[v] > disc[p.v] {
				bridge[in] = true
			}
		}
	}
	return bridge
}

// EdgeList returns every undirected link once, indexed by EID, in
// canonical (U < V) spelling — the uniform-draw table the dynamics
// experiments sample failures from.
func (g *Graph) EdgeList() []EdgeKey {
	out := make([]EdgeKey, g.m)
	for u := NodeID(0); int(u) < g.n; u++ {
		for _, e := range g.Neighbors(u) {
			if e.To > u {
				out[e.EID] = EdgeKey{U: u, V: e.To}
			}
		}
	}
	return out
}

// WithoutEdges returns a copy of g minus the edges whose IDs are marked in
// dead (indexed by EID, length M()). Node IDs are preserved; edge IDs are
// renumbered densely in the same deterministic order AddEdge assigned them.
// The copy is returned Finalized. This is the topology a failure scenario
// routes on: removed links simply no longer exist.
//
// The copy is filtered straight out of g's flat rows (finalizing g first if
// need be): survivors keep their order within a row, and the renumbering is
// monotone, so the rows stay sorted and nothing is rebuilt edge by edge.
func (g *Graph) WithoutEdges(dead []bool) *Graph {
	if len(dead) != g.m {
		panic(fmt.Sprintf("graph: WithoutEdges mask has %d entries for %d edges", len(dead), g.m))
	}
	g.Finalize()
	newID := make([]int32, g.m)
	alive := int32(0)
	for id, d := range dead {
		newID[id] = alive
		if !d {
			alive++
		}
	}
	g2 := &Graph{n: g.n, m: int(alive), sorted: true,
		edges: make([]Edge, 0, 2*alive), off: make([]int32, g.n+1)}
	for v := 0; v < g.n; v++ {
		for _, e := range g.edges[g.off[v]:g.off[v+1]] {
			if !dead[e.EID] {
				e.EID = newID[e.EID]
				g2.edges = append(g2.edges, e)
			}
		}
		g2.off[v+1] = int32(len(g2.edges))
	}
	g2.unit = g.unit || allUnit(g2.edges)
	return g2
}

// WeightedLink names one undirected link together with its weight — the
// unit of link recovery: restoring a previously failed link needs the
// weight back, which the failed graph no longer records.
type WeightedLink struct {
	U, V NodeID
	W    float64
}

// WithEdges returns a copy of g plus the given additional links. Existing
// edges keep their relative EID order (renumbered densely, as WithoutEdges
// does); added links get the next IDs in the order given, so identical
// inputs always produce identical graphs. The copy is returned Finalized.
// This is the topology after a recovery event: restored links exist again.
//
// The copy is g's flat rows (finalizing g first if need be) with the new
// halves spliced in at their sorted positions, so its cost is one pass over
// the edge array however few links are added. It panics on the links
// AddEdge refuses, on a link g already has, and on a pair given twice (a
// harness invariant, see the package comment).
func (g *Graph) WithEdges(adds []WeightedLink) *Graph {
	g.Finalize()
	type half struct {
		from NodeID
		e    Edge
	}
	halves := make([]half, 0, 2*len(adds))
	unit := g.unit
	for i, a := range adds {
		g.checkEdge(a.U, a.V, a.W)
		id := int32(g.m + i)
		halves = append(halves,
			half{a.U, Edge{To: a.V, EID: id, Weight: a.W}},
			half{a.V, Edge{To: a.U, EID: id, Weight: a.W}})
		unit = unit && a.W == 1
	}
	slices.SortFunc(halves, func(a, b half) int {
		return cmp.Or(cmp.Compare(a.from, b.from), byNeighbor(a.e, b.e))
	})
	g2 := &Graph{n: g.n, m: g.m + len(adds), sorted: true, unit: unit,
		edges: make([]Edge, 0, len(g.edges)+len(halves)), off: make([]int32, g.n+1)}
	// A new half goes behind every existing edge of its row to a lower
	// neighbor; halves are in row order, so the splice points only move
	// forward through g.edges.
	copied := 0
	for i, h := range halves {
		if i > 0 && halves[i-1].from == h.from && halves[i-1].e.To == h.e.To {
			panic(fmt.Sprintf("graph: WithEdges given link (%d,%d) twice", h.from, h.e.To))
		}
		row := g.edges[g.off[h.from]:g.off[h.from+1]]
		j := sort.Search(len(row), func(i int) bool { return row[i].To >= h.e.To })
		if j < len(row) && row[j].To == h.e.To {
			panic(fmt.Sprintf("graph: WithEdges adds link (%d,%d), which exists", h.from, h.e.To))
		}
		at := int(g.off[h.from]) + j
		g2.edges = append(g2.edges, g.edges[copied:at]...)
		g2.edges = append(g2.edges, h.e)
		copied = at
	}
	g2.edges = append(g2.edges, g.edges[copied:]...)
	// Row v starts behind every half spliced into a lower row.
	before := 0
	for v := 0; v <= g.n; v++ {
		for before < len(halves) && int(halves[before].from) < v {
			before++
		}
		g2.off[v] = g.off[v] + int32(before)
	}
	return g2
}

// AvgDegree returns the average node degree 2M/N.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.N())
}

// MaxDegree returns the maximum node degree.
func (g *Graph) MaxDegree() int {
	deg := 0
	for u := NodeID(0); int(u) < g.n; u++ {
		deg = max(deg, g.Degree(u))
	}
	return deg
}
