// Package pathtree provides the one view of a destination-rooted
// shortest-path tree that every protocol and every stretch denominator
// reads: Lazy, a single bound root over reusable search scratch.
//
// Lazy answers exactly what a full Dijkstra from the root would, but on
// unit-weight graphs (three of the paper's four topologies) it is
// demand-driven: a bound root's tree is settled one distance level at a time
// and only as far as the queries reach, and a point-to-point query meets in
// the middle, stopping at the link where the two balls touch. On the
// shallow, wide router- and AS-like maps a pair's distance then settles
// about 90 nodes, both sides together, and its path about 140, instead of
// all n (BenchmarkLazyPair).
package pathtree

import (
	"math"
	"slices"

	"disco/internal/graph"
)

// Lazy is a single-root shortest-path view over reusable SSSP scratch:
// nothing is materialized per root, and on unit-weight graphs the tree is
// not even computed until a query needs it, so roots queried in runs (one
// destination per sampled pair) cost no O(n) allocation each. Not safe for
// concurrent use; one per worker, shareable between the protocol forks of
// that worker so they reuse each other's searches.
//
// Every answer is the one a full graph.SSSP.Run(root) gives — distances, and
// paths node for node — whatever was asked before it. What differs is how
// much of the tree an answer settles:
//
//   - Bind settles the root alone. From then until the next Bind to another
//     root the root side only grows, one whole distance level at a time
//     (graph.SSSP.Step); a node it has settled answers in O(1), and a level
//     is scanned for its successors only when the next level is wanted.
//   - Nearest and Closer grow the root side just far enough: to the first
//     level holding a marked node, to the levels below r.
//   - Dist, Parent, PathFrom and PathTo of a node v the root side has not
//     reached search from both ends: a second scratch grows a ball around v
//     (graph.SSSP.BeginUnsorted: its levels are never sorted, and its
//     parents are never read), and the side with the smaller outermost level
//     is the one to step. Before it steps, its frontier rows are tested
//     against the other side's settled set (graph.SSSP.Touches); on a hit
//     neither side settles the level across that link, and d(root,v) =
//     step.Depth() + other.Depth() - 1: the two radii plus the link. The
//     sides are disjoint until then — a meet starts only from a v the root
//     side has not settled, however far Closer or Nearest grew it — so a
//     touched node lies on the other side's frontier and the sum is a
//     shortest distance. A side that runs out first means v is unreachable.
//     That is two half-depth balls, O(ball), instead of the whole graph. The
//     last meet — v, the distance, v's ball — is kept, so Dist(v) followed
//     by PathFrom(v) searches once.
//   - All settles the whole tree, for callers about to ask about every node.
//
// The path is the full run's because on unit weights the run's tree has a
// closed form, the canonical parent rule: a node's parent is its lowest-ID
// neighbour one level closer to the root (the level kernel scans a level in
// ascending ID and a node keeps its first toucher). PathFrom(v) applies that
// rule inside v's ball from v out to the ball's frontier, crosses the link
// where the two sides touched to the lowest-ID root-side node it reaches,
// and follows the root side's own parents from there (descend). The root
// side keeps its levels sorted, because Nearest's answer and its parents
// depend on the order.
//
// On a weighted graph there are no levels to pause between: Bind runs the
// full Dijkstra and every query reads it, as before. Which of the two
// happens is a property of the graph (Graph.Unit), never a setting.
type Lazy struct {
	s     *graph.SSSP // root side: the bound root's tree as far as it is settled
	far   *graph.SSSP // the ball around met; allocated at the first meet
	root  graph.NodeID
	bound bool
	// The last meet: far holds met's ball and metDist is d(root, met).
	// graph.None when far holds nothing usable.
	met     graph.NodeID
	metDist float64
	// descend's scratch: the ball nodes on a shortest met–root path, as a
	// set (all false between calls) and as the list that clears it.
	onPath []bool
	marked []graph.NodeID
}

// NewLazy returns a lazy view over g with no root bound yet.
func NewLazy(g *graph.Graph) *Lazy {
	return &Lazy{s: graph.NewSSSP(g), root: graph.None, met: graph.None}
}

// Graph returns the graph the view searches.
func (l *Lazy) Graph() *graph.Graph { return l.s.Graph() }

// Bind makes root the current tree root. If the root actually changed, a
// unit-weight graph settles just the root (queries grow the tree on demand)
// and a weighted one runs the full Dijkstra.
func (l *Lazy) Bind(root graph.NodeID) {
	if l.bound && l.root == root {
		return
	}
	if l.s.Graph().Unit() {
		l.s.Begin(root)
	} else {
		l.s.Run(root)
	}
	l.root, l.bound, l.met = root, true, graph.None
}

// known reports whether the root side alone answers for v: it has settled
// v, or it has settled everything it ever will (always, on a weighted
// graph), so an unsettled v is unreachable.
func (l *Lazy) known(v graph.NodeID) bool { return l.s.Settled(v) || l.s.Pending() == 0 }

// Dist returns d(root, v) for the bound root (+Inf if unreachable): O(1) for
// a node the root side has settled, a two-ended search otherwise.
func (l *Lazy) Dist(v graph.NodeID) float64 {
	if l.known(v) {
		return l.s.Dist(v)
	}
	return l.meet(v)
}

// meet returns d(root, v) for a v the root side has not settled, growing
// the root side and a ball around v until their frontiers touch (see Lazy).
func (l *Lazy) meet(v graph.NodeID) float64 {
	if l.met == v {
		return l.metDist
	}
	if l.far == nil {
		l.far = graph.NewSSSP(l.s.Graph())
	}
	l.far.BeginUnsorted(v)
	d := graph.Inf
	for l.s.Pending() > 0 && l.far.Pending() > 0 {
		step, other := l.s, l.far
		if l.far.Pending() < l.s.Pending() {
			step, other = l.far, l.s
		}
		if step.Touches(other) {
			// Depth counts levels, so each radius is one less; the
			// touching link adds one.
			d = float64(step.Depth() + other.Depth() - 1)
			break
		}
		step.Step()
	}
	l.met, l.metDist = v, d
	return d
}

// PathFrom returns v ⇝ root for the bound root — the tree path root ⇝ v
// walked the other way, valid because graphs here are undirected (the
// paper's §6 route reversibility assumption) — [v] alone when v is
// unreachable.
func (l *Lazy) PathFrom(v graph.NodeID) []graph.NodeID { return l.AppendPathFrom(nil, v) }

// AppendPathFrom is PathFrom appending to dst: no allocation beyond dst's
// own growth once the view's scratch is warm.
func (l *Lazy) AppendPathFrom(dst []graph.NodeID, v graph.NodeID) []graph.NodeID {
	if !l.known(v) {
		d := l.meet(v)
		if math.IsInf(d, 1) {
			return append(dst, v)
		}
		dst, v = l.descend(dst, v, d)
	}
	for u := v; u != graph.None; u = l.s.Parent(u) {
		dst = append(dst, u)
	}
	return dst
}

// descend walks the tree path from v = met, at distance d from the root,
// through met's ball and across the link where the two sides touched: it
// appends the ball nodes on the way to dst, with room grown for the whole
// path, and returns the first node past them, one the root side has
// settled.
//
// Let f be the ball's last level and r = d-f-1 the root side's last level
// when the two met. A ball node at distance j from v is on a shortest
// v–root path iff its root distance is d-j; call those M_j. M_f is read off
// the root side: the level-f nodes with a neighbour at root distance r
// (every such neighbour is settled, however far the root side has grown
// since). M_j is the level-j neighbours of M_{j+1}. The tree parent of a
// node in M_j is its lowest-ID neighbour at root distance d-j-1, and every
// such neighbour is in M_{j+1} (for j = f: at root distance r), so the walk
// takes the first one in the ID-sorted row. The ball's levels need no
// order for this, which is why it is grown unsorted.
func (l *Lazy) descend(dst []graph.NodeID, v graph.NodeID, d float64) ([]graph.NodeID, graph.NodeID) {
	g, far := l.s.Graph(), l.far
	f := far.Depth() - 1
	r := d - float64(f) - 1
	if l.onPath == nil {
		l.onPath = make([]bool, g.N())
	}
	marked := l.marked[:0]
	for _, x := range far.Level(f) {
		if l.rootNeighbour(x, r) != graph.None {
			l.onPath[x] = true
			marked = append(marked, x)
		}
	}
	for j, lo := f-1, 0; j > 0; j-- {
		hi := len(marked)
		for _, x := range marked[lo:hi] {
			for _, e := range g.Neighbors(x) {
				if y := e.To; !l.onPath[y] && far.Dist(y) == float64(j) {
					l.onPath[y] = true
					marked = append(marked, y)
				}
			}
		}
		lo = hi
	}
	dst = slices.Grow(dst, int(d)+1)
	for j := 1; j <= f; j++ {
		dst = append(dst, v)
		for _, e := range g.Neighbors(v) {
			if l.onPath[e.To] && far.Dist(e.To) == float64(j) {
				v = e.To
				break
			}
		}
	}
	for _, x := range marked {
		l.onPath[x] = false
	}
	l.marked = marked
	return append(dst, v), l.rootNeighbour(v, r)
}

// rootNeighbour returns x's lowest-ID neighbour at root distance r, or
// graph.None.
func (l *Lazy) rootNeighbour(x graph.NodeID, r float64) graph.NodeID {
	for _, e := range l.s.Graph().Neighbors(x) {
		if l.s.Dist(e.To) == r {
			return e.To
		}
	}
	return graph.None
}

// PathTo returns root ⇝ v for the bound root, nil when v is unreachable.
func (l *Lazy) PathTo(v graph.NodeID) []graph.NodeID {
	if math.IsInf(l.Dist(v), 1) {
		return nil
	}
	p := l.PathFrom(v)
	slices.Reverse(p)
	return p
}

// Nearest returns the marked node nearest the bound root and its distance,
// ties to the lowest ID; graph.None and +Inf when the root reaches none. It
// settles root-side levels only up to the one that holds the answer.
func (l *Lazy) Nearest(marked []bool) (graph.NodeID, float64) {
	// Order is ascending (distance, ID), so its first marked node wins.
	for i := 0; ; i++ {
		for i >= len(l.s.Order()) {
			if l.s.Step() == nil {
				return graph.None, graph.Inf
			}
		}
		if v := l.s.Order()[i]; marked[v] {
			return v, l.s.Dist(v)
		}
	}
}

// Closer reports d(root, v) < r, settling root-side levels below r only.
func (l *Lazy) Closer(v graph.NodeID, r float64) bool {
	for float64(l.s.Depth()) < r && l.s.Pending() > 0 {
		l.s.Step()
	}
	return l.s.Dist(v) < r
}
