// The shard store: the uniform storage layer beneath a Snapshot. Every
// unit of route state the repair pipeline, the fold threshold, and the
// forwarding tables' invalidation already reason about — one vicinity
// window per node, one forest parent row per landmark — is a *shard*, and
// a shardStore is the thing that holds one full generation of shards in
// some physical layout. Two implementations exist: exactStore (every
// window in vicinity.Window's one layout) and compactStore (bit-packed
// blobs, see compact.go).
//
// A Snapshot is then always the same sandwich regardless of regime:
//
//	reads -> overlay table (the repaired shards this snapshot sees)
//	      -> shardStore    (the shared base generation)
//
// The overlay is one flat copy-on-write table per repaired snapshot: a slot
// per shard, nil meaning "read the base store", so a read is an index and
// a nil check. A repair copies its parent's two slot arrays (8 B per node
// plus 24 B per landmark, noise next to the event's Dijkstra work) and
// writes the slots its event recomputed; the parent's table is never
// written and the shards stay shared with every snapshot that reads them.
// When the overlaid slots exceed foldOverlayFraction of the store's
// shards, the sandwich is folded into a fresh store (repair.go).
package snapshot

import (
	"disco/internal/graph"
	"disco/internal/vicinity"
)

// shardStore is one generation of base route state addressed by shard:
// vicinity windows keyed by owner node, forest rows keyed by row index.
// Implementations are immutable after construction and safe for
// concurrent readers; everything a store returns is shared and read-only.
type shardStore interface {
	// window returns V(v) — the stored window where the layout holds it
	// (exact), a freshly decoded private one where it does not (compact).
	window(v graph.NodeID) *vicinity.Window
	// windowMeta returns V(v)'s member count and radius — exactly what
	// window(v) would report — without materializing the window. The
	// recovery probe loop rides on this.
	windowMeta(v graph.NodeID) (size int, radius float64)
	// windowIndex returns w's index in V(v), or -1 when w is no member,
	// without materializing the window.
	windowIndex(v, w graph.NodeID) int
	// rowParent reads one parent field of forest row `row`.
	rowParent(row int, v graph.NodeID) graph.NodeID
	// decodeRow returns row `row` as a flat n-length parent array — shared
	// where the layout stores it that way (exact), decoded in one
	// sequential pass otherwise (compact).
	decodeRow(row int) []graph.NodeID
	// storeBytes is the store's backing footprint for Snapshot.Bytes.
	storeBytes() int64
}

// exactStore is the exact regime's shard store: every node's window in the
// one vicinity.Window layout, carved from shared column arrays, and the
// landmark trees as flat parent rows. Reads allocate nothing.
type exactStore struct {
	n       int
	wins    []vicinity.Window
	parents []graph.NodeID
}

func (st *exactStore) window(v graph.NodeID) *vicinity.Window { return &st.wins[v] }

func (st *exactStore) windowMeta(v graph.NodeID) (int, float64) {
	return st.wins[v].Size(), st.wins[v].Radius()
}

func (st *exactStore) windowIndex(v, w graph.NodeID) int { return st.wins[v].Find(w) }

func (st *exactStore) rowParent(row int, v graph.NodeID) graph.NodeID {
	return st.parents[row*st.n+int(v)]
}

func (st *exactStore) decodeRow(row int) []graph.NodeID {
	return st.parents[row*st.n : (row+1)*st.n : (row+1)*st.n]
}

func (st *exactStore) storeBytes() int64 {
	total := int64(len(st.wins))*windowBytes + int64(len(st.parents))*nodeBytes
	for v := range st.wins {
		total += st.wins[v].Bytes()
	}
	return total
}

// overlay is a repaired snapshot's shard table: vic[v] is node v's
// recomputed vicinity window, rows[row] forest row `row`'s recomputed
// parent array, nil where the snapshot reads the base store. Immutable
// once its snapshot is returned. Built and freshly folded snapshots hold a
// nil *overlay, which both accessors accept.
type overlay struct {
	vic    []*vicinity.Window
	rows   [][]graph.NodeID
	shards int // non-nil slots: what the fold threshold and OverlayShards count
}

// window returns v's overlaid vicinity window, or nil to read the base.
func (o *overlay) window(v graph.NodeID) *vicinity.Window {
	if o == nil {
		return nil
	}
	return o.vic[v]
}

// row returns forest row `row`'s overlaid parents, or nil to read the base.
func (o *overlay) row(row int) []graph.NodeID {
	if o == nil {
		return nil
	}
	return o.rows[row]
}

// deriveOverlay returns the table one repair past prev (nil for a built or
// freshly folded parent): prev's slots copied, prev itself left untouched
// for the snapshots holding it, then this event's shards written over them.
func deriveOverlay(prev *overlay, n, nrows int, affVic []graph.NodeID, wins []*vicinity.Window, rowIdx []int, prows [][]graph.NodeID) *overlay {
	o := &overlay{vic: make([]*vicinity.Window, n), rows: make([][]graph.NodeID, nrows)}
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
		if o.rows[row] == nil {
			o.shards++
		}
		o.rows[row] = prows[i]
	}
	return o
}
