// Package snapshot precomputes, once and in parallel, the immutable
// read-only route state that every experiment used to re-derive per worker:
// vicinity windows and landmark-rooted shortest-path trees (which also serve
// the resolution owners — owners are landmarks). A Snapshot is built after
// the environment converges and never mutated; protocol Fork() views share
// it by pointer, so worker-private state shrinks to counters and small
// scratch buffers instead of private vicinity maps and tree caches.
//
// Storage is organized as a shard store (store.go): every vicinity window
// and forest row is a shard, the base store holds one generation of
// shards, and a Snapshot reads through its overlay table of repaired
// shards (repair.go) down into that store. The base store is one of two
// regimes, and every read tests which it holds:
//
//   - Exact (Build): every node's window in vicinity.Window's one layout —
//     member IDs, parent indices, BFS levels (or float64 distances on a
//     weighted graph) and the membership bitset, carved from shared
//     column arrays — and landmark trees as parent rows in one contiguous
//     []graph.NodeID. Reads allocate nothing beyond the returned path
//     slices; Vicinity returns the stored window, which the forwarding
//     tables install as is.
//   - Compact (BuildCompact): the same state bit-packed (see compact.go) at
//     a fraction of the bytes — member IDs Elias–Fano-coded, parents as
//     window indices, distances as BFS levels in a few bits each (float64
//     bits on a weighted graph), forest parents as port indices. Vicinity
//     reads decode the window into a fresh one; a membership probe selects
//     the start of the target's bucket and compares that bucket's low
//     fields, the path to a member reads one parent field and one select a
//     hop, a member's distance one field, the member IDs (AppendMembers)
//     the two ID sections in one pass each, and tree reads decode single
//     parent fields, all in place — through internal/bits, several
//     fields a word load. No route decodes a window. The encoding is
//     lossless, so the two regimes differ only in packing: every read, and
//     every figure, is byte-identical on every topology.
//
// Immutability contract: everything reachable from a Snapshot is read-only
// after Build returns, and the types carry it. A vicinity.Window and a
// forest Row expose no slice, the graph is sealed at Finalize, and what a
// method hands out is a sealed type, a value, or memory of the caller's
// own (PathFrom's fresh path, a copy of RepairStats); TestSealedSurface
// holds every exported method to that. The touched lists inside
// RepairStats are the one shared slice, documented there.
package snapshot

import (
	"fmt"
	"slices"

	"disco/internal/graph"
	"disco/internal/parallel"
	"disco/internal/vicinity"
)

// Snapshot is the shared immutable route state of one converged
// environment: the vicinity table of every node and the shortest-path
// forest rooted at every landmark. Reads check the repair overlay table
// (nil on snapshots built from scratch), then fall through to the shard
// store — the base generation shared across a repair chain.
type Snapshot struct {
	g *graph.Graph
	k int // vicinity size actually built (clamped to n)

	// The base store, shared across a repair chain: the exact regime's
	// columns (wins, every node's window carved from shared column
	// arrays; parents, the landmark rows back to back, n each), or the
	// compact regime's cs. Exactly one regime is set.
	wins    []vicinity.Window
	parents []graph.NodeID
	cs      *compactStore

	// ov is the repair overlay table: nil on snapshots built from scratch
	// and on freshly folded chains, one slot per shard otherwise. All base
	// storage of a repaired snapshot is shared with the chain's base;
	// reads check the table first.
	ov *overlay

	// Landmark bookkeeping (both regimes): lmRow maps a node to its forest
	// row, or -1 when the node is not a landmark.
	landmarks []graph.NodeID
	lmRow     []int32

	// maxRadius upper-bounds every vicinity window's radius. ApplyFailures uses it to bound the blast-radius candidate
	// search: u ∈ V(x) implies d(x,u) <= maxRadius. A build and a fold
	// set it to the largest radius; a repair only raises it.
	maxRadius float64

	// repaired marks snapshots produced by ApplyFailures/ApplyRecoveries
	// (possibly folded); stats is that repair's accounting.
	repaired bool
	stats    RepairStats

	// short lists, ascending, the nodes whose vicinity windows hold fewer
	// than k entries — only possible after repairs of a disconnecting
	// failure. Recovery candidate searches need it: a shortfall window can
	// regain members at any distance, so the maxRadius ball bound does not
	// apply to it. nil on snapshots built from scratch (builds require a
	// connected graph, so every window is full).
	short []graph.NodeID
}

// Build computes the exact-regime snapshot for graph g with vicinity size k
// and the given landmark set, fanning both sweeps out over the parallel
// worker pool. Each task writes only its own entry window / tree row, so
// the result is identical at any worker count. The graph must be connected;
// a disconnected graph returns an error (no worker ever panics mid-pool).
func Build(g *graph.Graph, k int, landmarks []graph.NodeID) (*Snapshot, error) {
	return build(g, k, landmarks, false)
}

// BuildCompact is Build in the compact storage regime: the same route
// state bit-packed to a fraction of the exact footprint (the regime that
// makes paper-scale -full runs fit in memory). Vicinity windows are built
// and encoded shard by shard, so peak transient memory tracks the encoded
// size instead of the 16-byte-per-entry exact table.
func BuildCompact(g *graph.Graph, k int, landmarks []graph.NodeID) (*Snapshot, error) {
	return build(g, k, landmarks, true)
}

func build(g *graph.Graph, k int, landmarks []graph.NodeID, compact bool) (*Snapshot, error) {
	g.Finalize()
	n := g.N()
	if k > n {
		k = n
	}
	// Validate connectivity before the fan-out: a disconnected graph must
	// surface as a caller-visible error, never as a panic inside a worker
	// goroutine. The BFS is O(n+m) — noise next to n Dijkstra runs.
	if n > 0 {
		if _, comps := g.Components(); comps != 1 {
			return nil, fmt.Errorf("snapshot: graph has %d connected components; vicinities and landmark trees need a connected graph", comps)
		}
	}
	s := &Snapshot{g: g, k: k, landmarks: landmarks, lmRow: make([]int32, n)}
	for v := range s.lmRow {
		s.lmRow[v] = -1
	}
	for row, lm := range landmarks {
		s.lmRow[lm] = int32(row)
	}
	if compact {
		cs := newCompactStore(g, k)
		if err := s.buildCompactVicinities(cs); err != nil {
			return nil, err
		}
		if err := s.buildCompactForest(cs); err != nil {
			return nil, err
		}
		s.cs = cs
		return s, nil
	}
	if err := s.buildExactVicinities(); err != nil {
		return nil, err
	}
	if err := s.buildExactForest(); err != nil {
		return nil, err
	}
	return s, nil
}

// buildExactVicinities computes every node's window into s.wins: one
// truncated search per node, laid into its own window (vicinity.Ball.Fill).
// Shortfalls (a vicinity that could not settle k nodes) are collected per
// task and reported after the sweep.
func (s *Snapshot) buildExactVicinities() error {
	n, k := s.g.N(), s.k
	s.wins = vicinity.MakeWindows(s.g, n, k)
	settled := make([]int32, n)
	parallel.RunScratch(n,
		func() *vicinity.Ball { return vicinity.NewBall(s.g) },
		func(b *vicinity.Ball, v int) {
			b.Fill(&s.wins[v], graph.NodeID(v), k)
			settled[v] = int32(s.wins[v].Size())
		})
	for v := range s.wins {
		s.maxRadius = max(s.maxRadius, s.wins[v].Radius())
	}
	return firstShortfall(settled, k)
}

// buildExactForest computes every landmark's shortest-path tree straight
// into its parent row (graph.ParentRows: 64 trees to a shared sweep on a
// unit-weight graph, one full Dijkstra per landmark on a weighted one).
func (s *Snapshot) buildExactForest() error {
	n := s.g.N()
	s.parents = make([]graph.NodeID, len(s.landmarks)*n)
	rows := make([][]graph.NodeID, len(s.landmarks))
	for row := range rows {
		rows[row] = s.parents[row*n : (row+1)*n]
	}
	return forestShortfall(graph.ParentRows(s.g, s.landmarks, rows), s.landmarks, n)
}

// firstShortfall reports the lowest-indexed vicinity that settled fewer
// than k nodes, or nil. With connectivity pre-validated this is an internal
// invariant check, but it stays an error — never a worker panic.
func firstShortfall(settled []int32, k int) error {
	for v, got := range settled {
		if int(got) != k {
			return fmt.Errorf("snapshot: vicinity of node %d settled %d of %d nodes (graph disconnected?)", v, got, k)
		}
	}
	return nil
}

// forestShortfall is firstShortfall for landmark trees, which must reach
// every node.
func forestShortfall(settled []int32, landmarks []graph.NodeID, n int) error {
	for row, got := range settled {
		if int(got) != n {
			return fmt.Errorf("snapshot: landmark %d reaches %d of %d nodes (graph disconnected?)", landmarks[row], got, n)
		}
	}
	return nil
}

// K returns the vicinity size the table was built with (clamped to n).
func (s *Snapshot) K() int { return s.k }

// Graph returns the graph the snapshot was built over.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// Compact reports whether the snapshot uses the compact storage regime.
func (s *Snapshot) Compact() bool { return s.cs != nil }

// Vicinity returns V(v). In the exact regime it is the stored window
// (allocation-free, safe for concurrent readers); in the compact regime it
// is decoded into a fresh private window, so the call allocates one window
// but stays safe for concurrent readers. Callers that only need membership
// should prefer VicinityContains, and callers after the path to one member
// AppendVicinityPath, which never materialize the window.
func (s *Snapshot) Vicinity(v graph.NodeID) *vicinity.Window {
	if win := s.stored(v); win != nil {
		return win
	}
	return s.cs.window(v)
}

// stored returns V(v) where the snapshot holds it as a window — overlaid,
// or in an exact base store — and nil where it is a compact base window,
// which reads in place (compactStore.pointed).
func (s *Snapshot) stored(v graph.NodeID) *vicinity.Window {
	if win := s.ov.window(v); win != nil || s.cs != nil {
		return win
	}
	return &s.wins[v]
}

// VicinityContains reports w ∈ V(v) without materializing the window in
// either regime — the cheap probe where the common answer is "no".
func (s *Snapshot) VicinityContains(v, w graph.NodeID) bool {
	if win := s.stored(v); win != nil {
		return win.Contains(w)
	}
	p := s.cs.pointed(v)
	return p.Find(w) >= 0
}

// AppendVicinityPath appends V(v)'s tree path v ⇝ w to dst when w is a
// member, and otherwise reports false with dst unextended: one search,
// whose hit is read on from without searching again. A compact base
// window is read in place (pointed), a bucket probe and then one parent
// field and one ID select a hop, so the call decodes no window in either
// regime and allocates nothing beyond dst's growth.
func (s *Snapshot) AppendVicinityPath(dst []graph.NodeID, v, w graph.NodeID) ([]graph.NodeID, bool) {
	if win := s.stored(v); win != nil {
		if i := win.Find(w); i >= 0 {
			return win.AppendPath(dst, i), true
		}
		return dst, false
	}
	p := s.cs.pointed(v)
	if i := p.Find(w); i >= 0 {
		return p.AppendPath(dst, i), true
	}
	return dst, false
}

// VicinityDist returns w's distance from v when w is a member of V(v): the
// probe AppendVicinityPath makes, then one distance field, decoding nothing.
func (s *Snapshot) VicinityDist(v, w graph.NodeID) (float64, bool) {
	if win := s.stored(v); win != nil {
		if i := win.Find(w); i >= 0 {
			return win.Dist(i), true
		}
		return 0, false
	}
	p := s.cs.pointed(v)
	if i := p.Find(w); i >= 0 {
		return p.Dist(i), true
	}
	return 0, false
}

// AppendMembers appends V(v)'s member IDs, ascending, to dst: what a
// search over a whole window reads, with MemberDist(v, i) for the distance
// of the i-th ID appended. A compact base window's ID sections are read in
// place (the low column, then the buckets from the high array), so the
// call decodes no window in either regime and allocates nothing beyond
// dst's growth.
func (s *Snapshot) AppendMembers(dst []graph.NodeID, v graph.NodeID) []graph.NodeID {
	if win := s.stored(v); win != nil {
		dst = slices.Grow(dst, win.Size())
		for i := range win.Size() {
			dst = append(dst, win.ID(i))
		}
		return dst
	}
	p := s.cs.pointed(v)
	return p.appendIDs(dst)
}

// MemberDist returns the distance from v of V(v)'s member i, in the order
// AppendMembers appends them: one field, decoding nothing.
func (s *Snapshot) MemberDist(v graph.NodeID, i int) float64 {
	if win := s.stored(v); win != nil {
		return win.Dist(i)
	}
	p := s.cs.pointed(v)
	return p.Dist(i)
}

// windowMeta returns V(v)'s member count and radius without materializing
// the window in either regime — what the recovery pipeline's per-candidate
// probes run on. The radius is exactly Vicinity(v).Radius().
func (s *Snapshot) windowMeta(v graph.NodeID) (size int, radius float64) {
	if win := s.stored(v); win != nil {
		return win.Size(), win.Radius()
	}
	return s.cs.windowLen(v), s.cs.radii[v]
}

// row returns root's forest row; root must be a landmark.
func (s *Snapshot) row(root graph.NodeID) int {
	row := s.lmRow[root]
	if row < 0 {
		panic(fmt.Sprintf("snapshot: node %d is not a landmark", root))
	}
	return int(row)
}

// parentAt reads one field of forest row `row`, dispatching between the
// repair overlay (a sparse row: its flat row over an exact store, else its
// bitset, then its patches) and the shared base store. graph.None means v is the root — or, on a repaired
// row, that the failures cut v off from the root entirely (check Reaches).
func (s *Snapshot) parentAt(row int, v graph.NodeID) graph.NodeID {
	if sr := s.ov.row(row); sr != nil {
		if p, ok := sr.parent(v); ok {
			return p
		}
	}
	return s.baseParent(row, v)
}

// Row is one landmark's shortest-path tree as a read-only view of its
// flat parent row. It exposes no slice, so no holder can write a row
// ForestRow shares with the snapshot.
type Row struct{ parents []graph.NodeID }

// Parent returns v's predecessor on the row's tree: graph.None for the
// root, and on a repaired snapshot for a node the failures cut off from
// it (Reaches tells the two apart).
func (r Row) Parent(v graph.NodeID) graph.NodeID { return r.parents[v] }

// ForestRow returns root's shortest-path tree as a Row: the stored row
// shared by reference in the exact regime, where the store and the overlay
// keep rows flat, and in the compact regime a fresh row decoded in one
// sequential pass over the bit stream — an overlaid row as its base row
// with the overlay's patches written over it. Callers reading many fields
// hold on to the Row, each read one index; a walk to the root goes
// through AppendPathFrom. root must be a landmark.
func (s *Snapshot) ForestRow(root graph.NodeID) Row {
	return Row{s.forestRow(s.row(root))}
}

// forestRow is ForestRow by row index, as the flat row itself: an exact
// row shared by reference, or a compact base row decoded into a fresh row,
// an overlaid compact row with the patches applied there.
func (s *Snapshot) forestRow(row int) []graph.NodeID {
	sr := s.ov.row(row)
	if sr != nil && sr.flat != nil {
		return sr.flat
	}
	if s.cs == nil {
		return s.exactRow(row)
	}
	prow := s.cs.decodeRow(row)
	if sr != nil {
		sr.apply(prow)
	}
	return prow
}

// Reaches reports whether root's shortest-path tree still reaches v. On a
// snapshot built from scratch this is always true (builds require a
// connected graph); on a repaired snapshot it is the deliverability check
// forwarding performs before committing to a landmark leg.
func (s *Snapshot) Reaches(root, v graph.NodeID) bool {
	row := s.row(root)
	return v == root || s.parentAt(row, v) != graph.None
}

// PathFrom returns v ⇝ root on root's shortest-path tree (both endpoints
// included); root must be a landmark. On a repaired snapshot callers must
// check Reaches(root, v) first: an unreachable v yields a meaningless
// single-node path.
func (s *Snapshot) PathFrom(root, v graph.NodeID) []graph.NodeID {
	return s.AppendPathFrom(nil, root, v)
}

// AppendPathFrom is PathFrom appending to dst: no allocation beyond dst's
// own growth.
func (s *Snapshot) AppendPathFrom(dst []graph.NodeID, root, v graph.NodeID) []graph.NodeID {
	row := s.row(root)
	for u := v; u != graph.None; u = s.parentAt(row, u) {
		dst = append(dst, u)
	}
	return dst
}
