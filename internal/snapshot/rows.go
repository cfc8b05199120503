// Forest rows repaired by dynamic shortest paths: a touched row is not
// rebuilt but re-settled where the event can move it, and its changes go
// into the overlay through patchEdit, as sparse patches against the base
// store's row.
//
// It rests on one fact about the Dijkstra in internal/graph. Every link
// weighs more than 0 and no two join the same pair (graph refuses both),
// so nodes settle in (distance, node ID) order, and relaxations keep only
// strict improvements, so a node's parent is a local rule: the parent of x
// is the neighbour y with the smallest (d(y), y) among those where
// d(y)+w == d(x), the sum taken as the kernel takes it (w > 0 puts every
// such y before x). A node's parent can therefore move only when its own
// distance moves, a neighbour's distance moves, or one of its links comes
// or goes.
//
//   - Failures. A row changes iff some failed link is one of its tree
//     edges. Let O be the subtrees below those edges. Every node outside O
//     keeps its tree path, hence its distance, and its parent: the
//     candidates it loses were never its parent, and the nodes of O it
//     gains as candidates only settle later than before. Each node of O is
//     seeded with its best route from a neighbour outside O, a heap
//     Dijkstra restricted to O settles the rest, and a node of O it never
//     reaches is cut off (graph.None). Then the rule re-derives O's parents.
//   - Recoveries. A restored endpoint that gets a strict improvement (a
//     reconnection counts: its old distance is +Inf) seeds a Dijkstra that
//     propagates strict improvements only: the improved region D. Parents
//     are re-derived over D, D's neighbours and the restored endpoints.
//     With D empty that is the exact-tie patch: a restored link can steal
//     its endpoint's parent and nothing else.
//
// Distances outside the region are the pre-event row's, re-accumulated
// root to leaf along its tree in the kernel's addition order
// (d(child) = d(parent) + w), so every comparison reproduces the kernel's
// float results bit for bit. They are memoized per row in the worker's
// stamped scratch, so a row costs its region and the tree paths above the
// region's neighbours, not n.
package snapshot

import (
	"cmp"
	"math"
	"slices"

	"disco/internal/graph"
	"disco/internal/parallel"
)

// rowRepair is one forest row's outcome of an event: untouched, re-settled
// because a distance moved (every failure-touched row counts here), or
// patched because only parents moved.
type rowRepair struct {
	touched, resettled bool
	edit               rowEdit
}

// repairRows runs repair on every forest row over the worker pool, each
// worker with its own settler on the post-event graph g, and returns the
// touched rows ascending, their edits in parallel, and how many were
// re-settled. Rows are independent and merge in row order, so the result
// is worker-count invariant.
func (s *Snapshot) repairRows(g *graph.Graph, repair func(*rowSettler, int) rowRepair) (rowIdx []int, edits []rowEdit, resettled int) {
	res := parallel.MapScratch(len(s.landmarks),
		func() *rowSettler { return newRowSettler(s, g) },
		repair)
	for row, r := range res {
		if !r.touched {
			continue
		}
		rowIdx = append(rowIdx, row)
		edits = append(edits, r.edit)
		if r.resettled {
			resettled++
		}
	}
	return rowIdx, edits, resettled
}

// settleNode is one node's per-row scratch, each field valid only where
// its stamp equals the settler's epoch: old is the pre-event distance, nd
// the distance the event gives a node of the region, done marks a settled
// region node and seen a node whose parent was re-derived.
type settleNode struct {
	old, nd                     float64
	oldAt, ndAt, doneAt, seenAt uint32
}

// rowSettler is one worker's state for repairing forest rows of snapshot s
// into the post-event graph g. begin starts a row by bumping the epoch, so
// nothing is cleared between rows.
type rowSettler struct {
	s       *Snapshot
	g       *graph.Graph
	nodes   []settleNode
	epoch   uint32
	row     int
	lm      graph.NodeID
	region  []graph.NodeID
	heap    graph.Heap
	chain   []graph.NodeID
	patches []rowPatch
}

func newRowSettler(s *Snapshot, g *graph.Graph) *rowSettler {
	return &rowSettler{s: s, g: g, nodes: make([]settleNode, g.N())}
}

// begin starts forest row `row`.
func (rs *rowSettler) begin(row int) {
	rs.epoch++
	rs.row, rs.lm = row, rs.s.landmarks[row]
	rs.region, rs.heap, rs.patches = rs.region[:0], rs.heap[:0], rs.patches[:0]
}

// fail repairs row `row` for the failed links: the subtrees below its
// failed tree edges re-settled, or untouched when it has none.
func (rs *rowSettler) fail(row int, links []graph.EdgeKey) rowRepair {
	rs.begin(row)
	s := rs.s
	for _, f := range links {
		switch {
		case s.parentAt(row, f.V) == f.U:
			rs.enter(f.V)
		case s.parentAt(row, f.U) == f.V:
			rs.enter(f.U)
		}
	}
	if len(rs.region) == 0 {
		return rowRepair{}
	}
	// The orphaned subtrees: children are found on the pre-event graph,
	// where every tree edge of the pre-event row still exists.
	for i := 0; i < len(rs.region); i++ {
		x := rs.region[i]
		for _, e := range s.g.Neighbors(x) {
			if y := e.To; rs.nodes[y].ndAt != rs.epoch && s.parentAt(row, y) == x {
				rs.enter(y)
			}
		}
	}
	for _, x := range rs.region {
		d := math.Inf(1)
		for _, e := range rs.g.Neighbors(x) {
			if y := e.To; rs.nodes[y].ndAt != rs.epoch {
				d = min(d, rs.oldDist(y)+e.Weight)
			}
		}
		rs.lower(x, d)
	}
	rs.settle()
	for _, x := range rs.region {
		rs.rederive(x)
	}
	return rs.finish(true)
}

// recover repairs row `row` for the restored links: the region of strict
// improvements re-settled, and parents re-derived over it, its neighbours
// and the restored endpoints.
func (rs *rowSettler) recover(row int, links []graph.WeightedLink) rowRepair {
	rs.begin(row)
	for _, r := range links {
		du, dv := rs.oldDist(r.U), rs.oldDist(r.V)
		rs.offer(r.V, du+r.W)
		rs.offer(r.U, dv+r.W)
	}
	resettled := len(rs.region) > 0
	rs.settle()
	for _, r := range links {
		rs.rederive(r.U)
		rs.rederive(r.V)
	}
	for _, x := range rs.region {
		rs.rederive(x)
		for _, e := range rs.g.Neighbors(x) {
			rs.rederive(e.To)
		}
	}
	return rs.finish(resettled)
}

// finish seals the row's parents that move, ascending by node, into its
// edit; a row nothing moved in is untouched unless re-settled.
func (rs *rowSettler) finish(resettled bool) rowRepair {
	if !resettled && len(rs.patches) == 0 {
		return rowRepair{}
	}
	slices.SortFunc(rs.patches, func(a, b rowPatch) int { return cmp.Compare(a.v, b.v) })
	return rowRepair{touched: true, resettled: resettled, edit: rs.s.patchEdit(rs.row, rs.patches)}
}

// enter puts a failure-orphaned node into the region, unreached so far.
func (rs *rowSettler) enter(v graph.NodeID) {
	n := &rs.nodes[v]
	if n.ndAt != rs.epoch {
		n.nd, n.ndAt = math.Inf(1), rs.epoch
		rs.region = append(rs.region, v)
	}
}

// lower gives region node v the tentative distance d if it beats the one v
// holds.
func (rs *rowSettler) lower(v graph.NodeID, d float64) {
	if n := &rs.nodes[v]; d < n.nd {
		n.nd = d
		rs.heap.Push(d, v)
	}
}

// offer gives v the tentative distance d if it strictly beats v's distance
// so far, entering v into the region on its first improvement. A settled
// node is never improved again.
func (rs *rowSettler) offer(v graph.NodeID, d float64) {
	n := &rs.nodes[v]
	if n.ndAt == rs.epoch {
		if n.doneAt != rs.epoch {
			rs.lower(v, d)
		}
		return
	}
	if d < rs.oldDist(v) {
		rs.enter(v)
		rs.lower(v, d)
	}
}

// settle runs the region search to the end: the heap's entries settle in
// distance order and offer their neighbours on g. On a failure no node
// outside the region is ever improved (its distance is its old one, which
// no route through the region beats), so the search stays within it.
func (rs *rowSettler) settle() {
	for rs.heap.Len() > 0 {
		d, v := rs.heap.Pop()
		n := &rs.nodes[v]
		if n.doneAt == rs.epoch || d != n.nd {
			continue // stale entry
		}
		n.doneAt = rs.epoch
		for _, e := range rs.g.Neighbors(v) {
			rs.offer(e.To, d+e.Weight)
		}
	}
}

// dist returns v's post-event distance from the row's landmark: the
// region's where v is in it, +Inf for a region node the search never
// reached, and the pre-event one elsewhere.
func (rs *rowSettler) dist(v graph.NodeID) float64 {
	if n := &rs.nodes[v]; n.ndAt == rs.epoch {
		return n.nd
	}
	return rs.oldDist(v)
}

// oldDist returns v's pre-event distance from the row's landmark, +Inf
// where the row does not reach v: the pre-event tree path walked up to the
// first memoized node (or the root), then accumulated back down it in the
// kernel's order, every node on the way memoized.
func (rs *rowSettler) oldDist(v graph.NodeID) float64 {
	s, nodes := rs.s, rs.nodes
	chain := rs.chain[:0]
	u := v
	for nodes[u].oldAt != rs.epoch {
		p := s.parentAt(rs.row, u)
		if p == graph.None {
			d := 0.0
			if u != rs.lm {
				d = math.Inf(1)
			}
			nodes[u].old, nodes[u].oldAt = d, rs.epoch
			break
		}
		chain = append(chain, u)
		u = p
	}
	d := nodes[u].old
	for i := len(chain) - 1; i >= 0; i-- {
		x := chain[i]
		d += treeWeight(s.g, u, x)
		nodes[x].old, nodes[x].oldAt = d, rs.epoch
		u = x
	}
	rs.chain = chain
	return d
}

// treeWeight returns the weight the kernel adds along tree edge p→x; a
// unit-weight graph skips the port search.
func treeWeight(g *graph.Graph, p, x graph.NodeID) float64 {
	if g.Unit() {
		return 1
	}
	return g.EdgeWeight(p, x)
}

// rederive applies the parent rule to x once per row and records a patch
// when x's parent moves: graph.None where the event cut x off.
func (rs *rowSettler) rederive(x graph.NodeID) {
	n := &rs.nodes[x]
	if n.seenAt == rs.epoch || x == rs.lm {
		return
	}
	n.seenAt = rs.epoch
	p := graph.None
	if dx := rs.dist(x); dx < math.Inf(1) {
		p = rs.parentOf(x, dx)
	}
	if p != rs.s.parentAt(rs.row, x) {
		rs.patches = append(rs.patches, rowPatch{v: x, p: p})
	}
}

// parentOf returns the parent rule's choice for x at distance dx: the
// first-settling neighbour y with d(y)+w == dx. On a unit-weight graph
// every such y sits at dx-1, so the lowest ID, the first in x's sorted
// row, wins.
func (rs *rowSettler) parentOf(x graph.NodeID, dx float64) graph.NodeID {
	best, bd := graph.None, 0.0
	for _, e := range rs.g.Neighbors(x) {
		y := e.To
		dy := rs.dist(y)
		if dy+e.Weight != dx {
			continue
		}
		if best == graph.None || settlesBefore(dy, y, bd, best) {
			best, bd = y, dy
		}
		if rs.g.Unit() {
			break
		}
	}
	return best
}
