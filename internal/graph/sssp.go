package graph

import (
	"math"
	"math/bits"
	"slices"

	"disco/internal/parallel"
)

// Inf is the distance reported for unreached nodes.
var Inf = math.Inf(1)

// heapItem is one Heap entry.
type heapItem struct {
	dist float64
	node NodeID
}

// Heap is the kernel's lazy-deletion min-heap of (distance, node ID)
// entries: a caller skips stale entries (a node settled, or lowered since)
// on Pop. Ties pop in node ID order, so every search over it settles in
// the (distance, node ID) order regardless of insertion order. The zero
// value is an empty heap, and reslicing to [:0] empties it.
type Heap []heapItem

func (h Heap) less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}

// Len returns the number of entries, stale ones included.
func (h Heap) Len() int { return len(h) }

// Push adds node v at distance d.
func (h *Heap) Push(d float64, v NodeID) {
	*h = append(*h, heapItem{dist: d, node: v})
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*h).less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

// Pop removes and returns the least entry; the heap must not be empty.
func (h *Heap) Pop() (float64, NodeID) {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && (*h).less(l, s) {
			s = l
		}
		if r < n && (*h).less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		(*h)[i], (*h)[s] = (*h)[s], (*h)[i]
		i = s
	}
	return top.dist, top.node
}

// SSSP is a reusable single-source shortest-path scratch space over a fixed
// graph. Reuse across calls avoids reallocating O(n) arrays for the many
// thousands of (truncated) Dijkstra runs the static simulator performs.
// An SSSP is not safe for concurrent use; create one per goroutine.
type SSSP struct {
	g       *Graph
	dist    []float64
	parent  []NodeID
	nearest []NodeID // multi-source: which source settled this node
	stamp   []uint32
	settled []uint32 // stamp marking fully settled nodes
	epoch   uint32
	heap    Heap
	order   []NodeID // settle order of the last run
	// The bitset sortIDs orders a set of node IDs through, for the level
	// kernel's levels and for AppendSorted: all zero between calls.
	bits []uint64
	// Level kernel only: the nodes first touched from the level being
	// scanned, where each settled level ends in order, how far scanCut has
	// read each row of the level it scans, whether Step can carry the
	// search on (see Begin), whether its levels stay in touch order (see
	// BeginUnsorted), and how many row entries the scratch's runs under a
	// limit have read (TestRunKRowReadsCeiling counts them; other runs
	// read every row they scan whole).
	next      []NodeID
	levels    []int32
	cursor    []int32
	resumable bool
	unsorted  bool
	reads     int
}

// NewSSSP returns a shortest-path scratch bound to g. The graph must be
// Finalized and must not gain edges while the SSSP is in use.
func NewSSSP(g *Graph) *SSSP {
	if !g.Finalized() {
		g.Finalize()
	}
	n := g.N()
	return &SSSP{
		g:       g,
		dist:    make([]float64, n),
		parent:  make([]NodeID, n),
		nearest: make([]NodeID, n),
		stamp:   make([]uint32, n),
		settled: make([]uint32, n),
		bits:    make([]uint64, (n+63)/64),
	}
}

// Graph returns the graph this scratch is bound to.
func (s *SSSP) Graph() *Graph { return s.g }

func (s *SSSP) begin() {
	s.epoch++
	if s.epoch == 0 { // wrapped: clear stamps and restart
		for i := range s.stamp {
			s.stamp[i] = 0
			s.settled[i] = 0
		}
		s.epoch = 1
	}
	s.heap = s.heap[:0]
	s.order = s.order[:0]
	s.next = s.next[:0]
	s.levels = s.levels[:0]
	s.resumable, s.unsorted = false, false
}

func (s *SSSP) relax(v NodeID, d float64, via NodeID, src NodeID) {
	if s.stamp[v] == s.epoch {
		if s.settled[v] == s.epoch || d >= s.dist[v] {
			if d == s.dist[v] && s.settled[v] != s.epoch && src < s.nearest[v] {
				// Deterministic multi-source tie-break: lowest source wins.
				s.nearest[v] = src
				s.parent[v] = via
			}
			return
		}
	}
	s.stamp[v] = s.epoch
	s.dist[v] = d
	s.parent[v] = via
	s.nearest[v] = src
	s.heap.Push(d, v)
}

// run executes Dijkstra from the given sources, stopping when `limit` nodes
// have been settled (limit < 0 means no limit) or when the next settle
// distance would be >= radius (radius < 0 means no radius bound; strict:
// nodes at exactly radius are NOT settled).
//
// Two kernels implement it, chosen by what Finalize saw in the graph and by
// nothing else: the binary heap below for weighted graphs, runLevels for
// graphs whose every weight is exactly 1. Both meet one contract, with the
// heap kernel as the reference the tests compare against:
//
//   - nodes settle in ascending (distance, node ID) order, and Order lists
//     exactly the settled ones;
//   - limit is checked before every settle, then radius;
//   - a settled node's source is the lowest source ID among its
//     shortest-path predecessors' sources (with one source: that source),
//     and its parent is the earliest-settled predecessor that carries that
//     source, both final once the node settles;
//   - whatever a run left on unsettled nodes is not observable: every
//     accessor answers Inf/None for them. A kernel need not touch a node
//     it will not settle: the level kernel reads the rows that reach a
//     level a limit cuts only up to the cut.
func (s *SSSP) run(sources []NodeID, limit int, radius float64) {
	s.begin()
	if s.g.unit {
		s.runLevels(sources, limit, radius)
		return
	}
	s.runHeap(sources, limit, radius)
}

func (s *SSSP) runHeap(sources []NodeID, limit int, radius float64) {
	edges, off := s.g.edges, s.g.off
	for _, src := range sources {
		s.relax(src, 0, None, src)
	}
	for s.heap.Len() > 0 {
		if limit >= 0 && len(s.order) >= limit {
			return
		}
		d, v := s.heap.Pop()
		if s.settled[v] == s.epoch || d != s.dist[v] {
			continue // stale entry
		}
		if radius >= 0 && d >= radius {
			return
		}
		s.settled[v] = s.epoch
		s.order = append(s.order, v)
		for _, e := range edges[off[v]:off[v+1]] {
			s.relax(e.To, d+e.Weight, v, s.nearest[v])
		}
	}
}

// runLevels is run for unit-weight graphs: breadth-first, one distance level
// at a time. With every weight 1 the heap would hold a whole level of
// equal-distance entries and order them by node ID one sift at a time;
// here the level is collected as it is first touched and ordered once
// (sortIDs), which gives the same (distance, ID) settle order. A node's
// distance is fixed at first touch (level+1); later touches from the same
// level can only lower its source, exactly the equal-distance case of relax.
//
// A level that reaches limit, or whose successors would sit at or beyond
// radius, is settled without scanning its rows: nothing those scans could
// write would ever be settled, so none of it is observable. For the same
// reason, under a limit the rows of the level before are read only up to
// a node-ID bound at or past the highest ID the limit keeps of the level
// they reach (scanCut), and whole only when the limit does not cut it.
func (s *SSSP) runLevels(sources []NodeID, limit int, radius float64) {
	s.seed(sources)
	multi := len(s.next) > 1
	for d := 0.0; len(s.next) > 0; d++ {
		if radius >= 0 && d >= radius {
			return
		}
		take := len(s.next)
		if limit >= 0 {
			take = min(take, limit-len(s.order))
		}
		level := s.settle(take)
		if limit >= 0 && len(s.order) >= limit || radius >= 0 && d+1 >= radius {
			return
		}
		if limit >= 0 {
			s.scanCut(level, d, multi, limit-len(s.order))
		} else {
			s.scan(level, d, multi, math.MaxInt32, nil)
		}
	}
}

// seed makes the distinct sources the touched level 0.
func (s *SSSP) seed(sources []NodeID) {
	epoch := s.epoch
	for _, src := range sources {
		if s.stamp[src] != epoch {
			s.stamp[src], s.dist[src], s.parent[src], s.nearest[src] = epoch, 0, None, src
			s.next = append(s.next, src)
		}
	}
}

// settle and scan are the level kernel's two half-steps, shared by the
// run-to-the-end loop above and the resumable search below. settle settles
// the take lowest IDs of the touched level in ascending order (after
// BeginUnsorted: the whole level, in touch order) and returns them; scan
// walks the rows of a settled level at distance d and collects level d+1
// as it is first touched.
func (s *SSSP) settle(take int) []NodeID {
	start := len(s.order)
	if s.unsorted {
		s.order = append(s.order, s.next...)
	} else {
		s.order = append(s.order, s.sortIDs(s.next, take)...)
	}
	s.levels = append(s.levels, int32(len(s.order)))
	s.next = s.next[:0]
	level := s.order[start:]
	for _, u := range level {
		s.settled[u] = s.epoch
	}
	return level
}

// scan reads the rows of level, settled at distance d, and collects level
// d+1 as it is first touched. With cursors, row i is read from entry
// from[i] up to its first entry above bound, and from[i] is left there;
// with from nil every row is read whole. Rows are ID-sorted, so a node at
// or below bound is touched by the same rows, in the same order, as a
// scan of whole rows touches it, and gets the same distance, parent and
// source.
func (s *SSSP) scan(level []NodeID, d float64, multi bool, bound NodeID, from []int32) {
	epoch, next := s.epoch, d+1
	edges, off := s.g.edges, s.g.off
	// One length for the four node arrays: a node's index is checked once.
	stamp := s.stamp
	dist, parent, nearest := s.dist[:len(stamp)], s.parent[:len(stamp)], s.nearest[:len(stamp)]
	for i, u := range level {
		row := edges[off[u]:off[u+1]]
		if from != nil {
			row = row[from[i]:]
			end := 0
			for end < len(row) && row[end].To <= bound {
				end++
			}
			row = row[:end]
			from[i] += int32(end)
			s.reads += end
		}
		src := nearest[u]
		for _, e := range row {
			v := e.To
			if stamp[v] != epoch {
				stamp[v], dist[v], parent[v], nearest[v] = epoch, next, u, src
				s.next = append(s.next, v)
			} else if multi && src < nearest[v] && dist[v] == next {
				// v is in the next level: lowest source wins.
				nearest[v], parent[v] = src, u
			}
		}
	}
}

// scanCut is scan for a level after which only room more nodes settle:
// those are the room lowest IDs of level d+1, and reading a row past the
// room-th of them touches nothing that settles. So it reads every row up
// to a bound and raises the bound until the touched level holds room
// nodes; a level whose rows run out first is not cut, and neither is one
// whose rows hold no more than room entries, which is read whole at once.
// Every node at or below the last bound has been touched as a full scan
// touches it (see scan), so the room lowest are the full scan's.
func (s *SSSP) scanCut(level []NodeID, d float64, multi bool, room int) {
	off, edges := s.g.off, s.g.edges
	entries := 0
	for _, u := range level {
		entries += int(off[u+1] - off[u])
	}
	if entries <= room {
		s.reads += entries
		s.scan(level, d, multi, math.MaxInt32, nil)
		return
	}
	cur := slices.Grow(s.cursor[:0], len(level))[:len(level)]
	clear(cur)
	s.cursor = cur
	// The first bound is where the rows would hold room entries if their
	// entries were spread evenly over the IDs.
	n, start := s.g.N(), s.reads
	bound := n * room / entries
	for {
		s.scan(level, d, multi, NodeID(bound), cur)
		found, read := len(s.next), s.reads-start
		switch {
		case found >= room || bound >= n-1:
			return
		case found == 0:
			// Nothing new yet: widen the range past the lowest entry
			// no row has read.
			low := NodeID(math.MaxInt32)
			for i, u := range level {
				if j := off[u] + cur[i]; j < off[u+1] {
					low = min(low, edges[j].To)
				}
			}
			bound += int(low) + 1
		case found*entries < room*read:
			// At the rate the rows have yielded new nodes so far, they
			// cannot fill the room: read them out.
			bound = n - 1
		default:
			// Extrapolate the new nodes found so far over the IDs.
			bound = (bound + 1) * room / found
		}
		bound = min(bound, n-1)
	}
}

// Begin starts a resumable single-source search from src on a unit-weight
// graph, settling src alone (level 0). Each Step then does what one turn of
// Run's loop does, with the same two half-steps — scan the rows of the last
// settled level, settle what they newly reach — so a search stepped until
// Step returns nil is Run(src): same Order, distances and parents. In
// between, every settled node already carries its final distance and
// parent, and the last settled level's rows have not been scanned yet: a
// search that stops at some level never pays for the level after it. Begin
// panics on a weighted graph, where there are no levels to pause between.
func (s *SSSP) Begin(src NodeID) {
	if !s.g.unit {
		panic("graph: SSSP.Begin needs a unit-weight graph")
	}
	s.begin()
	s.seed([]NodeID{src})
	s.settle(1)
	s.resumable = true
}

// BeginUnsorted is Begin for a search that is asked only which nodes it
// settled and at what distance: each level is settled in the order its
// nodes were first touched, never sorted. Settled sets, distances, Depth
// and Pending are Begin's; Order and Level list the same nodes per level,
// in touch order. A node's parent is still one level closer to src, but it
// is the node whose row touched it first, not Run's lowest-ID one.
func (s *SSSP) BeginUnsorted(src NodeID) {
	s.Begin(src)
	s.unsorted = true
}

// Step settles exactly one more level of a search started with Begin or
// BeginUnsorted — the nodes at distance Depth() — and returns it (valid
// until the next Begin or Run). It returns nil once the source's component
// is exhausted.
func (s *SSSP) Step() []NodeID {
	if !s.resumable {
		return nil
	}
	d := len(s.levels) - 1
	s.scan(s.Level(d), float64(d), false, math.MaxInt32, nil)
	if len(s.next) == 0 {
		s.resumable = false
		return nil
	}
	return s.settle(len(s.next))
}

// Touches reports whether a row of the last settled level — the rows the
// next Step would scan — holds a node other, a search of the same graph,
// has settled. It reads both searches and writes neither, and answers
// false once Step has nothing left to scan. When the two settled sets are
// disjoint, a node it finds lies on other's last level, and the two
// sources are Depth() + other.Depth() - 1 apart: both radii plus the link.
func (s *SSSP) Touches(other *SSSP) bool {
	if !s.resumable {
		return false
	}
	edges, off := s.g.edges, s.g.off
	settled, epoch := other.settled, other.epoch
	for _, u := range s.Level(len(s.levels) - 1) {
		for _, e := range edges[off[u]:off[u+1]] {
			if settled[e.To] == epoch {
				return true
			}
		}
	}
	return false
}

// Depth returns how many levels the search has settled: every node at
// distance < Depth() is settled and no other. It counts the levels of any
// run on a unit-weight graph, not only of a stepped one; a run that stopped
// at a RunK limit kept the lowest IDs of its last level. A weighted graph's
// runs have no levels: Depth is 0.
func (s *SSSP) Depth() int { return len(s.levels) }

// Pending returns the size of the last settled level, whose rows the next
// Step has still to scan — what that Step costs — or 0 when there is nothing
// to resume: the source's component is exhausted, or the last search was not
// started with Begin.
func (s *SSSP) Pending() int {
	if !s.resumable {
		return 0
	}
	return len(s.Level(len(s.levels) - 1))
}

// Level returns the settled nodes at distance i < Depth(): ascending ID,
// except after BeginUnsorted, where they stay in the order first touched.
func (s *SSSP) Level(i int) []NodeID {
	lo := int32(0)
	if i > 0 {
		lo = s.levels[i-1]
	}
	return s.order[lo:s.levels[i]]
}

// sortIDs orders the distinct node IDs ids ascending in ids' own storage
// and returns the take lowest. A dense set is ordered by setting one bit
// per node and reading the words back, stopping after take; a sparse one
// (a ring's, a line's or a grid's level: a few nodes far apart in ID space)
// by sorting the short list instead of scanning the empty words between
// them. Either way a set of L costs O(min(L log L, L + span/64)). The
// bitset is all zero before and after.
func (s *SSSP) sortIDs(ids []NodeID, take int) []NodeID {
	if len(ids) <= 2 { // a path's or a ring's whole level
		if len(ids) == 2 && ids[0] > ids[1] {
			ids[0], ids[1] = ids[1], ids[0]
		}
		return ids[:take]
	}
	lo, hi := ids[0], ids[0]
	for _, v := range ids[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	base := lo &^ 63 // ID of bit 0 of words[0]
	words := s.bits[lo>>6 : hi>>6+1]
	if len(ids)*bits.Len(uint(len(ids))) < len(words) {
		slices.Sort(ids)
		return ids[:take]
	}
	for _, v := range ids {
		words[(v-base)>>6] |= 1 << (v & 63)
	}
	out := ids[:0]
	for i, w := range words {
		if len(out) == take {
			break
		}
		for ; w != 0 && len(out) < take; w &= w - 1 {
			out = append(out, base+NodeID(i<<6+bits.TrailingZeros64(w)))
		}
	}
	clear(words)
	return out
}

// AppendSorted appends the nodes the last run settled to dst in ascending
// ID order and returns the extended slice: Order sorted, through the same
// bitset the level kernel orders its levels with.
func (s *SSSP) AppendSorted(dst []NodeID) []NodeID {
	n := len(dst)
	dst = append(dst, s.order...)
	s.sortIDs(dst[n:], len(s.order))
	return dst
}

// Run computes shortest paths from src to every reachable node.
func (s *SSSP) Run(src NodeID) { s.run([]NodeID{src}, -1, -1) }

// RunK computes shortest paths from src until k nodes (including src) are
// settled. The settle order (Order) then lists the k nodes closest to src in
// (distance, node ID) order — the paper's vicinity V(src) for k =
// Θ(sqrt(n log n)) (§4.2). On a unit-weight graph the rows that reach the
// last, cut level are read only up to an ID bound at or a little past the
// highest ID it keeps (see scanCut).
func (s *SSSP) RunK(src NodeID, k int) { s.run([]NodeID{src}, k, -1) }

// RunRadius computes shortest paths from src settling exactly the nodes at
// distance strictly less than radius. S4's cluster computation uses this:
// node w contributes itself to the cluster of every v with d(w,v) <
// d(w, l_w) (§4.2 "Comparison with S4").
func (s *SSSP) RunRadius(src NodeID, radius float64) { s.run([]NodeID{src}, -1, radius) }

// RunMulti computes a multi-source shortest-path forest: for every node, the
// distance and tree path to its nearest source (ties to the lowest source
// ID). This yields d(v, l_v) and the landmark trees in one pass.
func (s *SSSP) RunMulti(sources []NodeID) { s.run(sources, -1, -1) }

// Settled reports whether v was settled by the last run.
func (s *SSSP) Settled(v NodeID) bool { return s.settled[v] == s.epoch }

// Dist returns the shortest-path distance to v from the last run's
// source(s), or +Inf if v was not settled.
func (s *SSSP) Dist(v NodeID) float64 {
	if s.settled[v] != s.epoch {
		return Inf
	}
	return s.dist[v]
}

// Parent returns the predecessor of v on its shortest path, or None.
func (s *SSSP) Parent(v NodeID) NodeID {
	if s.settled[v] != s.epoch {
		return None
	}
	return s.parent[v]
}

// Source returns the source that settled v in a multi-source run (the
// nearest landmark, in the protocol's terms), or None if unsettled.
func (s *SSSP) Source(v NodeID) NodeID {
	if s.settled[v] != s.epoch {
		return None
	}
	return s.nearest[v]
}

// Order returns the settle order of the last run. The slice is reused by the
// next run; copy it if it must survive.
func (s *SSSP) Order() []NodeID { return s.order }

// PathTo returns the node path source⇝v from the last run (inclusive of
// both endpoints), or nil if v was not settled.
func (s *SSSP) PathTo(v NodeID) []NodeID {
	if s.settled[v] != s.epoch {
		return nil
	}
	var rev []NodeID
	for u := v; u != None; u = s.parent[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// ForEachSource fans an all-sources Dijkstra sweep out over the parallel
// worker pool: visit(s, i, sources[i]) runs once per source with a
// worker-private SSSP scratch; visit calls whichever Run variant it needs
// (Run, RunK, RunRadius) and reads the results off s. The graph is
// finalized up front so workers only ever read it; visit must confine
// writes to source-indexed (or worker-private) storage.
func ForEachSource(g *Graph, sources []NodeID, visit func(s *SSSP, i int, src NodeID)) {
	if !g.Finalized() {
		g.Finalize()
	}
	parallel.RunScratch(len(sources),
		func() *SSSP { return NewSSSP(g) },
		func(s *SSSP, i int) { visit(s, i, sources[i]) })
}
