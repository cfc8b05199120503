// Package vicinity computes vicinities (§4.2): V(v) is the set of the
// Θ(sqrt(n log n)) nodes closest to v, learned in the real protocol through
// path vector with the "accept only landmarks or the k closest advertised
// nodes" rule, and computed here directly with truncated Dijkstra for the
// static simulator. Unlike S4's clusters, vicinity size is fixed, which is
// what enforces Disco's per-node state bound on every topology.
package vicinity

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"disco/internal/graph"
)

// DefaultK returns the vicinity size used throughout the evaluation:
// ceil(sqrt(n*log2(n))), the paper's Θ(sqrt(n log n)) with constant 1.
func DefaultK(n int) int {
	if n <= 1 {
		return n
	}
	k := int(math.Ceil(math.Sqrt(float64(n) * math.Log2(float64(n)))))
	if k > n {
		k = n
	}
	return k
}

// Entry is one vicinity member as seen from the vicinity's owner: the
// member, its shortest-path distance from the owner, and its parent on the
// owner-rooted shortest-path tree (None for the owner itself). Parents are
// always vicinity members themselves, so paths can be reconstructed
// entirely within the Set.
type Entry struct {
	Node   graph.NodeID
	Parent graph.NodeID
	Dist   float64
}

// Set is the vicinity of one node. Entries are sorted by member node ID for
// binary search; the owner itself is included with distance 0.
type Set struct {
	Src     graph.NodeID
	Entries []Entry
	radius  float64
}

// Find returns the entry for w and whether w is in the vicinity.
func (s *Set) Find(w graph.NodeID) (Entry, bool) {
	i := sort.Search(len(s.Entries), func(i int) bool { return s.Entries[i].Node >= w })
	if i < len(s.Entries) && s.Entries[i].Node == w {
		return s.Entries[i], true
	}
	return Entry{}, false
}

// Contains reports whether w ∈ V(src).
func (s *Set) Contains(w graph.NodeID) bool {
	_, ok := s.Find(w)
	return ok
}

// Dist returns the shortest-path distance src⇝w if w is in the vicinity,
// else +Inf.
func (s *Set) Dist(w graph.NodeID) float64 {
	if e, ok := s.Find(w); ok {
		return e.Dist
	}
	return math.Inf(1)
}

// Radius returns the distance of the farthest vicinity member — the
// "radius" a node can announce to neighbors to suppress useless
// advertisements (§4.2 control-state discussion).
func (s *Set) Radius() float64 { return s.radius }

// Size returns the number of members including the owner.
func (s *Set) Size() int { return len(s.Entries) }

// PathTo returns the shortest path src⇝w (inclusive) reconstructed from
// parent pointers, or nil if w is not in the vicinity.
func (s *Set) PathTo(w graph.NodeID) []graph.NodeID {
	if _, ok := s.Find(w); !ok {
		return nil
	}
	var rev []graph.NodeID
	for u := w; u != graph.None; {
		rev = append(rev, u)
		e, ok := s.Find(u)
		if !ok {
			panic("vicinity: parent chain leaves the set")
		}
		u = e.Parent
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// FirstHopTo returns the first hop from src on the shortest path to w, or
// None if w == src or w is not in the vicinity.
func (s *Set) FirstHopTo(w graph.NodeID) graph.NodeID {
	p := s.PathTo(w)
	if len(p) < 2 {
		return graph.None
	}
	return p[1]
}

// Members returns the member IDs in ascending order (fresh slice).
func (s *Set) Members() []graph.NodeID {
	out := make([]graph.NodeID, len(s.Entries))
	for i, e := range s.Entries {
		out[i] = e.Node
	}
	return out
}

// Table holds vicinities for a subset of (or all) nodes.
type Table struct {
	K    int
	sets map[graph.NodeID]*Set
}

// Build computes the k-node vicinity of every node in sources (nil means
// all nodes) by truncated Dijkstra, fanning the per-source runs out over
// the parallel worker pool. Ties at the vicinity boundary are broken by
// node ID, matching the deterministic path-vector acceptance order, so the
// table is identical at any worker count.
func Build(g *graph.Graph, k int, sources []graph.NodeID) *Table {
	if sources == nil {
		sources = graph.AllNodes(g)
	}
	sets := make([]*Set, len(sources))
	graph.ForEachSource(g, sources, func(s *graph.SSSP, i int, src graph.NodeID) {
		sets[i] = buildOne(s, src, k)
	})
	t := &Table{K: k, sets: make(map[graph.NodeID]*Set, len(sources))}
	for i, src := range sources {
		t.sets[src] = sets[i]
	}
	return t
}

func buildOne(s *graph.SSSP, src graph.NodeID, k int) *Set {
	s.RunK(src, k)
	entries := make([]Entry, len(s.Order()))
	Fill(entries, s)
	set := MakeSet(src, entries)
	return &set
}

// byNode is the Set order.
func byNode(a, b Entry) int { return cmp.Compare(a.Node, b.Node) }

// Fill materializes the ball sp's last single-source run settled as a
// vicinity window: one Entry per settled node, sorted by member ID (the Set
// order). win must hold exactly len(sp.Order()) entries — k after a RunK on
// a connected graph, fewer when the source's component ran out first.
//
// On a unit-weight graph the level kernel has already done most of the
// sorting: the ball is Depth() runs, one per distance, each ascending by ID
// (a RunK limit keeps the lowest IDs of its last level). Fill merges those
// runs through a heap of their heads, O(k log depth) whatever the shape —
// four or five runs on a small-world map, k/2 on a ring — and a member's
// distance is its run's level. The heap kernel (weighted graphs) leaves no
// runs, so its settle order is sorted instead.
func Fill(win []Entry, sp *graph.SSSP) {
	if !sp.Graph().Unit() {
		for j, w := range sp.Order() {
			win[j] = Entry{Node: w, Parent: sp.Parent(w), Dist: sp.Dist(w)}
		}
		slices.SortFunc(win, byNode)
		return
	}
	var few [16]levelRun // the heap lives on the stack unless the ball is deep
	h := few[:0]
	for d := 0; d < sp.Depth(); d++ {
		if ids := sp.Level(d); len(ids) > 0 {
			h = append(h, levelRun{head: ids[0], rest: ids[1:], dist: float64(d)})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for j := range win {
		top := &h[0]
		win[j] = Entry{Node: top.head, Parent: sp.Parent(top.head), Dist: top.dist}
		if len(top.rest) > 0 {
			top.head, top.rest = top.rest[0], top.rest[1:]
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
}

// levelRun is what Fill has still to take of one level of the ball: the
// next ID, the ascending IDs behind it, and the level's distance.
type levelRun struct {
	head graph.NodeID
	rest []graph.NodeID
	dist float64
}

// siftDown restores the min-heap on the runs' first IDs below position i.
func siftDown(h []levelRun, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h[l].head < h[m].head {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r].head < h[m].head {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Index turns the member IDs of one sorted window into window indices: a
// node-indexed scratch the caller owns and reuses window after window (one
// per worker, as long as the graph has nodes). Bind records where each
// member sits; Parent then reads a member's parent position in O(1), which
// is how the compact encoder and the forwarding tables store parents. The
// scratch is never cleared: Parent checks what it reads against the window,
// so an entry left by an earlier window cannot pass for a member.
type Index []int32

// Bind records win's member positions.
func (ix Index) Bind(win []Entry) {
	for i, e := range win {
		ix[e.Node] = int32(i)
	}
}

// Parent returns the window index of entry i's parent in the window last
// bound, or -1 for the owner (whose parent is None). Every other parent is
// a member — a parent settles before its child — so a miss means the window
// itself is corrupt, not that the input was bad, and panics.
func (ix Index) Parent(win []Entry, i int) int32 {
	p := win[i].Parent
	if p == graph.None {
		return -1
	}
	if p >= 0 && int(p) < len(ix) {
		if j := ix[p]; j >= 0 && int(j) < len(win) && win[j].Node == p {
			return j
		}
	}
	panic(fmt.Sprintf("vicinity: parent %d of member %d is outside the vicinity window", p, win[i].Node))
}

// MakeSet assembles a Set view over entries that are already sorted by
// member node ID, without copying or re-sorting: the slice is referenced as
// is, so callers can hand out windows of one contiguous backing array (the
// snapshot layer's flat vicinity table). Only the radius is computed.
func MakeSet(src graph.NodeID, entries []Entry) Set {
	s := Set{Src: src, Entries: entries}
	for _, e := range entries {
		if e.Dist > s.radius {
			s.radius = e.Dist
		}
	}
	return s
}

// FromEntries assembles a Set from raw entries (e.g. collected by the
// event-driven path-vector protocol), sorting them and computing the
// radius. The entries slice is taken over by the Set.
func FromEntries(src graph.NodeID, entries []Entry) *Set {
	slices.SortFunc(entries, byNode)
	set := MakeSet(src, entries)
	return &set
}

// Of returns the vicinity of v, or nil if it was not built.
func (t *Table) Of(v graph.NodeID) *Set { return t.sets[v] }

// Sources returns the nodes whose vicinities were built, ascending.
func (t *Table) Sources() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(t.sets))
	for v := range t.sets {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// BuildOne computes a single vicinity without retaining a table — used for
// on-demand computation on sampled nodes of very large topologies.
func BuildOne(g *graph.Graph, src graph.NodeID, k int) *Set {
	return buildOne(graph.NewSSSP(g), src, k)
}
