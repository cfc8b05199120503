// Package vicinity computes vicinities (§4.2): V(v) is the set of the
// Θ(sqrt(n log n)) nodes closest to v, learned in the real protocol through
// path vector with the "accept only landmarks or the k closest advertised
// nodes" rule, and computed here directly with truncated Dijkstra for the
// static simulator. Unlike S4's clusters, vicinity size is fixed, which is
// what enforces Disco's per-node state bound on every topology.
//
// A vicinity has one in-memory form, Window: the member IDs ascending, a
// parent-index column, a distance column and a membership bitset — the
// shape of a forwarding table, one sorted vector searched in place. The
// snapshot stores windows as they are, the forwarding tables install the
// snapshot's windows, and the compact encoding writes the parent column
// as is. Parents are window positions, so a path is pointer-chasing within
// one window, never a search, and a position takes two bytes: a window
// holds at most MaxMembers members, which also bounds a unit-weight
// window's BFS levels, so on a unit-weight graph (graph.Unit) every window
// keeps its distances as uint16 levels.
package vicinity

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"disco/internal/graph"
)

// MaxMembers is the most members a window holds: a parent position is a
// uint16 with math.MaxUint16 marking the owner, so positions run to
// MaxMembers-1. The paper's largest map (192,244 nodes) needs k = 1,837.
// snapshot.Build refuses a larger k with an error; the window
// constructors panic on one, a harness invariant.
const MaxMembers = math.MaxUint16

// owner is the parent column's entry for the owner, which has no parent.
const owner = math.MaxUint16

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

// Window is the vicinity of one node, column by column: ids holds the
// members ascending (the owner included, at distance 0), parent[i] the
// index in ids of member i's parent on the owner-rooted shortest-path tree
// (math.MaxUint16 for the owner; parents are always members), and one
// distance column. A member costs 4 bytes of ID and 2 of parent, plus 2 of
// level or 8 of distance. On a unit-weight graph a member's distance is
// its BFS level, below k <= MaxMembers, so the column is a uint16 level;
// on any other graph it is the float64 distance. The choice is made per
// window from the graph it was computed on, as graph.SSSP picks its
// kernel, so a repair chain can hold both.
//
// filt is the membership bitset Find tests first: bit id&(len(filt)·64−1)
// is set for every member. It is sized to the ID space (exact, no false
// positives) up to 8192 bits and is a residue filter beyond. It was
// measured, not assumed: with it removed (bench/ serve-tables, seed 1, four
// alternating pairs) throughput read 0.70–0.92M queries/s against
// 1.11–1.35M with it, for 3.7 MB of 64.0 retained. On the To-Destination
// walk every hop's window is probed for the target and most do not hold
// it; a clear bit answers that in two loads.
//
// There is no index over ids beyond the array itself. Flat names do not
// aggregate: grouped into maximal runs of consecutive IDs a window yields
// 0.90 runs per entry on G(n,m) n=4096 (k=222), 0.76 on AS-like n=4096,
// 0.74 on router-like n=8192 and 0.64 on router-like n=2048, so an
// interval table would re-spell ids and its search would visit as many
// elements.
//
// A Window is immutable once built and exposes no slice, so it is safe to
// share between any number of readers.
type Window struct {
	ids    []graph.NodeID
	parent []uint16
	level  []uint16  // BFS levels (unit-weight graph), else nil
	dist   []float64 // distances (any other graph), else nil
	filt   []uint64
	radius float64
}

// Size returns the number of members including the owner.
func (w *Window) Size() int { return len(w.ids) }

// ID returns member i's node ID.
func (w *Window) ID(i int) graph.NodeID { return w.ids[i] }

// Parent returns the index of member i's parent, or -1 for the owner.
func (w *Window) Parent(i int) int {
	if p := w.parent[i]; p != owner {
		return int(p)
	}
	return -1
}

// Dist returns member i's shortest-path distance from the owner.
func (w *Window) Dist(i int) float64 {
	if w.level != nil {
		return float64(w.level[i])
	}
	return w.dist[i]
}

// Radius returns the distance of the farthest member — the "radius" a node
// can announce to neighbors to suppress useless advertisements (§4.2
// control-state discussion).
func (w *Window) Radius() float64 { return w.radius }

// Find returns the index of member t, or -1 when t is not in the window:
// the bitset test, then one binary search of the ID column. Zero
// allocations.
func (w *Window) Find(t graph.NodeID) int {
	b := uint32(t) & uint32(len(w.filt)*64-1)
	if w.filt[b>>6]&(1<<(b&63)) == 0 {
		return -1
	}
	ids := w.ids
	i, j := 0, len(ids)
	for i < j {
		m := int(uint(i+j) >> 1)
		if ids[m] < t {
			i = m + 1
		} else {
			j = m
		}
	}
	if i == len(ids) || ids[i] != t {
		return -1
	}
	return i
}

// Contains reports whether t is a member.
func (w *Window) Contains(t graph.NodeID) bool { return w.Find(t) >= 0 }

// AppendPath appends the shortest path owner ⇝ ID(i), both ends included,
// to dst: the parent chain from member i, written back to front into the
// room it measured first, so the only allocation is dst's own growth.
func (w *Window) AppendPath(dst []graph.NodeID, i int) []graph.NodeID {
	n := 0
	for j := uint16(i); j != owner; j = w.parent[j] {
		n++
	}
	dst = slices.Grow(dst, n)[:len(dst)+n]
	for j, k := uint16(i), len(dst)-1; j != owner; j, k = w.parent[j], k-1 {
		dst[k] = w.ids[j]
	}
	return dst
}

// Bytes returns what the window's columns occupy; the Window header itself
// is the caller's to count.
func (w *Window) Bytes() int64 {
	return int64(len(w.ids))*int64(unsafe.Sizeof(graph.NodeID(0))) +
		int64(len(w.parent))*int64(unsafe.Sizeof(uint16(0))) +
		int64(len(w.level))*int64(unsafe.Sizeof(uint16(0))) +
		int64(len(w.dist))*int64(unsafe.Sizeof(float64(0))) +
		int64(len(w.filt))*int64(unsafe.Sizeof(uint64(0)))
}

// seal sets the membership bits of a cleared bitset from the ID column.
func (w *Window) seal() {
	mask := uint32(len(w.filt)*64 - 1)
	for _, id := range w.ids {
		b := uint32(id) & mask
		w.filt[b>>6] |= 1 << (b & 63)
	}
}

// filterWords is the bitset size over an ID space of n nodes, in words:
// one bit a node, a power of two from 64 up to 8192 bits.
func filterWords(n int) int {
	bits := 64
	for bits < n && bits < 8192 {
		bits <<= 1
	}
	return bits / 64
}

// carve cuts the next n elements off the front of *pool, capacity clipped
// so a window cannot grow into its neighbour.
func carve[T any](pool *[]T, n int) []T {
	s := (*pool)[:n:n]
	*pool = (*pool)[n:]
	return s
}

// clone carves a copy of src off the front of *pool.
func clone[T any](pool *[]T, src []T) []T {
	s := carve(pool, len(src))
	copy(s, src)
	return s
}

// checkMembers panics when a window would hold more than MaxMembers
// members: a harness invariant, since snapshot.Build refuses such a k with
// an error before any window is made.
func checkMembers(m int) {
	if m > MaxMembers {
		panic(fmt.Sprintf("vicinity: a window of %d members exceeds the limit of %d (MaxMembers)", m, MaxMembers))
	}
}

// MakeWindows returns count empty windows with room for k members each, in
// the distance form a ball of g takes (BFS levels when g is unit-weight,
// float64 distances otherwise), carved from one array per column — so a
// whole store is a handful of allocations, not five a window. Fill them
// with Ball.Fill.
func MakeWindows(g *graph.Graph, count, k int) []Window {
	checkMembers(k)
	words := filterWords(g.N())
	ids, parent, filt := make([]graph.NodeID, count*k), make([]uint16, count*k), make([]uint64, count*words)
	var level []uint16
	var dist []float64
	if g.Unit() {
		level = make([]uint16, count*k)
	} else {
		dist = make([]float64, count*k)
	}
	wins := make([]Window, count)
	for i := range wins {
		wins[i] = Window{ids: carve(&ids, k), parent: carve(&parent, k), filt: carve(&filt, words)}
		if level != nil {
			wins[i].level = carve(&level, k)
		} else {
			wins[i].dist = carve(&dist, k)
		}
	}
	return wins
}

// Pack copies windows into one fresh array per column — what folding a
// repair chain into a new store does — each window keeping its form.
func Pack(src []*Window) []Window {
	var members, levels, words int
	for _, w := range src {
		members, levels, words = members+len(w.ids), levels+len(w.level), words+len(w.filt)
	}
	ids, parent, filt := make([]graph.NodeID, members), make([]uint16, members), make([]uint64, words)
	level, dist := make([]uint16, levels), make([]float64, members-levels)
	out := make([]Window, len(src))
	for i, w := range src {
		out[i] = Window{ids: clone(&ids, w.ids), parent: clone(&parent, w.parent), filt: clone(&filt, w.filt), radius: w.radius}
		if w.level != nil {
			out[i].level = clone(&level, w.level)
		} else {
			out[i].dist = clone(&dist, w.dist)
		}
	}
	return out
}

// FromColumns assembles a window from columns the caller hands over and no
// longer touches: member IDs ascending, parent indices (math.MaxUint16 for
// the owner), one distance column — BFS levels or float64 distances, the
// other nil — and the radius, its largest entry, over an ID space of
// idSpace nodes.
func FromColumns(idSpace int, ids []graph.NodeID, parent []uint16, level []uint16, dist []float64, radius float64) *Window {
	checkMembers(len(ids))
	w := &Window{ids: ids, parent: parent, level: level, dist: dist, filt: make([]uint64, filterWords(idSpace)), radius: radius}
	w.seal()
	return w
}

// Entry is one vicinity member as a protocol reports it: the member, its
// parent's node ID (None for the owner) and its distance from the owner.
type Entry struct {
	Node   graph.NodeID
	Parent graph.NodeID
	Dist   float64
}

// FromEntries assembles a window from raw entries in any order (e.g.
// collected by the event-driven path-vector protocol), over an ID space of
// idSpace nodes. The entries are sorted in place. A parent that is not a
// member means the entries do not form a vicinity, and panics; so do more
// than MaxMembers entries.
func FromEntries(idSpace int, entries []Entry) *Window {
	slices.SortFunc(entries, func(a, b Entry) int { return cmp.Compare(a.Node, b.Node) })
	ids, parent, dist := make([]graph.NodeID, len(entries)), make([]uint16, len(entries)), make([]float64, len(entries))
	radius := 0.0
	for i, e := range entries {
		ids[i], dist[i] = e.Node, e.Dist
		radius = max(radius, e.Dist)
	}
	for i, e := range entries {
		parent[i] = owner
		if e.Parent != graph.None {
			j, ok := slices.BinarySearch(ids, e.Parent)
			if !ok {
				panic(fmt.Sprintf("vicinity: parent %d of member %d is outside the vicinity window", e.Parent, e.Node))
			}
			parent[i] = uint16(j)
		}
	}
	return FromColumns(idSpace, ids, parent, nil, dist, radius)
}

// Ball computes windows on one graph: a truncated shortest-path search and
// a node-indexed scratch that turns the search's parent IDs into window
// positions. It is never cleared: a position is only read for a parent of
// the window being filled, which the fill has just written. One Ball per
// worker; not safe for concurrent use.
type Ball struct {
	sp  *graph.SSSP
	pos []uint16
}

// NewBall returns a window scratch over g.
func NewBall(g *graph.Graph) *Ball {
	return &Ball{sp: graph.NewSSSP(g), pos: make([]uint16, g.N())}
}

// Fill computes V(src) with k members into w, which must come from
// MakeWindows over the ball's graph with room for k: a truncated search
// from src, its settled nodes laid out in member-ID order by one sort of
// the settle order (graph.SSSP.AppendSorted), each member's distance or
// BFS level read off the search. w holds fewer than k members when src's
// component ran out first; its storage is reused, so one w can take
// window after window.
func (b *Ball) Fill(w *Window, src graph.NodeID, k int) {
	sp := b.sp
	sp.RunK(src, k)
	w.ids = sp.AppendSorted(w.ids[:0])
	m := len(w.ids)
	w.parent, w.radius = w.parent[:m], 0
	if m > 0 {
		w.radius = sp.Dist(sp.Order()[m-1]) // nodes settle in ascending distance
	}
	if w.level != nil {
		w.level = w.level[:m]
	} else {
		w.dist = w.dist[:m]
	}
	for i, id := range w.ids {
		d := sp.Dist(id)
		if w.level != nil {
			w.level[i] = uint16(d)
		} else {
			w.dist[i] = d
		}
		b.pos[id] = uint16(i)
	}
	for i, id := range w.ids {
		w.parent[i] = owner
		if p := sp.Parent(id); p != graph.None {
			w.parent[i] = b.pos[p]
		}
	}
	clear(w.filt)
	w.seal()
}
