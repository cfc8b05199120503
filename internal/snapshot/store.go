// The shard store: the uniform storage layer beneath a Snapshot. Every
// unit of route state the repair pipeline, the fold threshold, and the
// forwarding tables' invalidation already reason about — one vicinity
// window per node, one forest parent row per landmark — is a *shard*, and
// a Snapshot's base store holds one full generation of shards in its
// regime's layout: the exact columns (Snapshot.wins and Snapshot.parents,
// every window in vicinity.Window's one layout and the forest as flat
// parent rows) or a compactStore (bit-packed blobs, see compact.go).
// Exactly one is set, and a read tests which; nothing stands between the
// two but that test.
//
// A Snapshot is then always the same sandwich regardless of regime:
//
//	reads -> overlay table (the repaired shards this snapshot sees)
//	      -> base store    (the shared base generation)
//
// The overlay is one flat copy-on-write table per repaired snapshot: a slot
// per shard, nil meaning "read the base store", so a read is an index and
// a nil check. A repair copies its parent's two slot arrays (8 B per node
// and per landmark, noise next to the event's Dijkstra work) and writes
// the slots its event recomputed; the parent's table is never written and
// the shards stay shared with every snapshot that reads them. When the
// overlaid slots exceed foldOverlayFraction of the store's shards, the
// sandwich is folded into a fresh store (repair.go).
//
// An overlaid window is the recomputed window whole. An overlaid forest row
// is a sparse row: only the nodes whose parent differs from the base
// store's row, so a compact row a repair touched costs its difference from
// the chain base, not n parents. A repair moves about two parents of a row
// it touches, and the differences of a chain's events add up only until
// the next fold. Over an exact store the sparse row also keeps the whole
// row flat, as the base rows are, so that a landmark leg's parent reads
// stay plain indexes (see sparseRow).
package snapshot

import (
	"slices"

	"disco/internal/graph"
	"disco/internal/vicinity"
)

// exactRow returns forest row `row` of an exact base store, shared.
func (s *Snapshot) exactRow(row int) []graph.NodeID {
	n := s.g.N()
	return s.parents[row*n : (row+1)*n : (row+1)*n]
}

// baseParent reads v's parent in forest row `row` of the base store.
func (s *Snapshot) baseParent(row int, v graph.NodeID) graph.NodeID {
	if s.cs != nil {
		return s.cs.rowParent(row, v)
	}
	return s.parents[row*s.g.N()+int(v)]
}

// overlay is a repaired snapshot's shard table: vic[v] is node v's
// recomputed vicinity window, rows[row] forest row `row`'s difference from
// the base store's row, nil where the snapshot reads the base store.
// Immutable once its snapshot is returned. Built and freshly folded
// snapshots hold a nil *overlay, which both accessors accept.
type overlay struct {
	vic    []*vicinity.Window
	rows   []*sparseRow
	shards int // non-nil slots: what the fold threshold and OverlayShards count
}

// sparseRow is an overlaid forest row as its difference from the base
// store's row: nodes lists, ascending, every node whose parent differs,
// and parents their parents, in the same order. has marks the nodes in a
// bitset, so a read of a node the row does not patch — nearly all of
// them — costs one word test before it goes to the base store. A sparse
// row always patches at least one node; a row equal to its base row is a
// nil slot.
//
// Over an exact store, flat also holds the whole patched row, and reads
// take it instead of the bitset and the base store. The walk reads a
// parent per landmark-leg hop: on an unfolded exact chain head over
// G(n,m) n=4096, the bitset test and the store read made a route 6–13%
// slower than a flat row did (2 cores of a 2.0 GHz Xeon, go1.24). An
// exact base is large already, so the row's n parents are a small share
// of its bytes. Over a compact store flat is nil.
type sparseRow struct {
	nodes   []graph.NodeID
	parents []graph.NodeID
	has     []uint64
	flat    []graph.NodeID
}

// newSparseRow seals the patches of an n-node row, or returns nil when
// there are none.
func newSparseRow(n int, nodes, parents []graph.NodeID) *sparseRow {
	if len(nodes) == 0 {
		return nil
	}
	sr := &sparseRow{nodes: nodes, parents: parents, has: make([]uint64, (n+63)/64)}
	for _, v := range nodes {
		sr.has[v>>6] |= 1 << (v & 63)
	}
	return sr
}

// parent returns v's patched parent, or false when v reads the base row.
func (sr *sparseRow) parent(v graph.NodeID) (graph.NodeID, bool) {
	if sr.flat != nil {
		return sr.flat[v], true
	}
	if sr.has[v>>6]&(1<<(v&63)) == 0 {
		return graph.None, false
	}
	i, _ := slices.BinarySearch(sr.nodes, v)
	return sr.parents[i], true
}

// patches returns the row's patched nodes and their parents; none on a nil
// row.
func (sr *sparseRow) patches() (nodes, parents []graph.NodeID) {
	if sr == nil {
		return nil, nil
	}
	return sr.nodes, sr.parents
}

// apply writes the patches over prow, the base row.
func (sr *sparseRow) apply(prow []graph.NodeID) {
	for i, v := range sr.nodes {
		prow[v] = sr.parents[i]
	}
}

// flatten keeps the whole row in flat, base is the base store's row.
func (sr *sparseRow) flatten(base []graph.NodeID) {
	sr.flat = slices.Clone(base)
	sr.apply(sr.flat)
}

// bytes is the row's footprint for Snapshot.Bytes.
func (sr *sparseRow) bytes() int64 {
	return sparseRowBytes + int64(len(sr.nodes)+len(sr.parents)+len(sr.flat))*nodeBytes + int64(len(sr.has))*u64Bytes
}

// window returns v's overlaid vicinity window, or nil to read the base.
func (o *overlay) window(v graph.NodeID) *vicinity.Window {
	if o == nil {
		return nil
	}
	return o.vic[v]
}

// row returns forest row `row`'s patches, or nil to read the base.
func (o *overlay) row(row int) *sparseRow {
	if o == nil {
		return nil
	}
	return o.rows[row]
}

// deriveOverlay returns the table one repair past prev (nil for a built or
// freshly folded parent): prev's slots copied, prev itself left untouched
// for the snapshots holding it, then this event's shards written over them.
// A touched row whose patches came to nothing reads the base again.
func deriveOverlay(prev *overlay, n, nrows int, affVic []graph.NodeID, wins []*vicinity.Window, rowIdx []int, edits []rowEdit) *overlay {
	o := &overlay{vic: make([]*vicinity.Window, n), rows: make([]*sparseRow, nrows)}
	if prev != nil {
		copy(o.vic, prev.vic)
		copy(o.rows, prev.rows)
		o.shards = prev.shards
	}
	for i, v := range affVic {
		if o.vic[v] == nil {
			o.shards++
		}
		o.vic[v] = wins[i]
	}
	for i, row := range rowIdx {
		sr := edits[i].sr
		switch {
		case o.rows[row] == nil && sr != nil:
			o.shards++
		case o.rows[row] != nil && sr == nil:
			o.shards--
		}
		o.rows[row] = sr
	}
	return o
}
