// The shard store: the uniform storage layer beneath a Snapshot. Every
// unit of route state the repair pipeline, the fold threshold, and the
// forwarding tables' invalidation already reason about — one vicinity
// window per node, one forest parent row per landmark — is a *shard*, and
// a shardStore is the thing that holds one full generation of shards in
// some physical layout. Two implementations exist: exactStore (flat
// slices, see snapshot.go) and compactStore (bit-packed blobs, see
// compact.go).
//
// A Snapshot is then always the same sandwich regardless of regime:
//
//	reads -> overlay chain (this chain segment's repaired shards)
//	      -> shardStore    (the shared base generation)
//
// The overlay is a linked chain of per-event deltas instead of one flat
// map so that chaining an event costs O(its blast radius), not O(the
// accumulated overlay): finishRepair pushes a new link holding only the
// event's recomputed shards and never copies the older links (they are
// shared, immutable, with the previous snapshots that still read them).
// To keep reads O(log) and retained duplicates bounded, pushOverlay
// greedily absorbs older links into the new one while they are no larger
// than twice the growing new link — the classic LSM merge shape. The
// invariant after every push is that adjacent links grow by more than 2x
// going older, so the chain depth is logarithmic in the overlay size and
// the total retained entries stay under twice the distinct-shard count.
// When the distinct count crosses foldOverlayFraction of the store's
// shards, the whole sandwich is folded into a fresh store (repair.go).
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
	// windowSet returns V(v) as a Set — a shared view where the layout
	// allows (exact), a freshly decoded private copy where it does not
	// (compact).
	windowSet(v graph.NodeID) *vicinity.Set
	// windowLen returns the member count of V(v) without materializing it.
	windowLen(v graph.NodeID) int
	// windowRadius returns V(v)'s stored radius — exactly the value
	// windowSet(v).Radius() would report — without materializing the
	// window. The recovery probe loop rides on this.
	windowRadius(v graph.NodeID) float64
	// windowContains reports w ∈ V(v) without materializing the window.
	windowContains(v, w graph.NodeID) bool
	// rowParent reads one parent field of forest row `row`.
	rowParent(row int, v graph.NodeID) graph.NodeID
	// decodeRow returns row `row` as a flat n-length parent array — shared
	// where the layout stores it that way (exact), decoded in one
	// sequential pass otherwise (compact).
	decodeRow(row int) []graph.NodeID
	// storeBytes is the store's backing footprint for Snapshot.Bytes.
	storeBytes() int64
}

// exactStore is the exact regime's shard store: all vicinity entries in
// one contiguous slice with per-node offsets, landmark trees as flat
// parent rows. Reads allocate nothing.
type exactStore struct {
	n       int
	entries []vicinity.Entry
	off     []int
	sets    []vicinity.Set
	parents []graph.NodeID
}

func (st *exactStore) windowSet(v graph.NodeID) *vicinity.Set { return &st.sets[v] }
func (st *exactStore) windowLen(v graph.NodeID) int           { return st.off[v+1] - st.off[v] }
func (st *exactStore) windowRadius(v graph.NodeID) float64    { return st.sets[v].Radius() }
func (st *exactStore) windowContains(v, w graph.NodeID) bool  { return st.sets[v].Contains(w) }

func (st *exactStore) rowParent(row int, v graph.NodeID) graph.NodeID {
	return st.parents[row*st.n+int(v)]
}

func (st *exactStore) decodeRow(row int) []graph.NodeID {
	return st.parents[row*st.n : (row+1)*st.n : (row+1)*st.n]
}

func (st *exactStore) storeBytes() int64 {
	return int64(len(st.entries))*entryBytes +
		int64(len(st.off))*offBytes +
		int64(len(st.sets))*setBytes +
		int64(len(st.parents))*nodeBytes
}

// overlay is one link of a snapshot's repaired-shard chain: the vicinity
// windows and forest rows some event (or a merge of adjacent events)
// recomputed. Links are immutable once a snapshot holds them — a chained
// child may absorb a link it is about to shadow only inside pushOverlay,
// before the new link is published. Reads walk newest to oldest; first
// hit wins.
type overlay struct {
	prev *overlay
	vic  map[graph.NodeID]*vicinity.Set
	rows map[int][]graph.NodeID
	// shards counts the DISTINCT shards across this link and every older
	// one — the union, i.e. the logical overlay size the fold threshold
	// and OverlayShards speak. Retained entries may exceed it (a newer
	// link shadowing an older one), bounded under 2x by the merge
	// invariant.
	shards int
}

// size returns the entries held by this single link.
func (o *overlay) size() int { return len(o.vic) + len(o.rows) }

// findVic returns the newest overlaid window for v, walking the chain.
// Nil-receiver safe: a snapshot with no overlay just misses.
func (o *overlay) findVic(v graph.NodeID) (*vicinity.Set, bool) {
	for ; o != nil; o = o.prev {
		if set, ok := o.vic[v]; ok {
			return set, true
		}
	}
	return nil, false
}

// findRow returns the newest overlaid parent row for `row`.
func (o *overlay) findRow(row int) ([]graph.NodeID, bool) {
	for ; o != nil; o = o.prev {
		if prow, ok := o.rows[row]; ok {
			return prow, true
		}
	}
	return nil, false
}

// pushOverlay chains one event's recomputed shards (vic, rows — ownership
// transfers to the overlay) onto prev, which is left untouched and stays
// valid for the snapshots already holding it. Older links no larger than
// twice the growing new link are absorbed into it (newest entry wins), so
// per-event work is O(blast radius) amortized, chain depth stays
// logarithmic, and retained duplicates stay under one extra copy of the
// distinct-shard union.
func pushOverlay(prev *overlay, vic map[graph.NodeID]*vicinity.Set, rows map[int][]graph.NodeID) *overlay {
	o := &overlay{prev: prev, vic: vic, rows: rows}
	for o.prev != nil && o.prev.size() <= 2*o.size() {
		p := o.prev
		for v, set := range p.vic {
			if _, ok := o.vic[v]; !ok {
				o.vic[v] = set
			}
		}
		for row, prow := range p.rows {
			if _, ok := o.rows[row]; !ok {
				o.rows[row] = prow
			}
		}
		o.prev = p.prev
	}
	o.shards = o.size()
	if o.prev != nil {
		o.shards = o.prev.shards
		//disco:orderinvariant findVic is a pure chain lookup; the loop only counts members
		for v := range o.vic {
			if _, ok := o.prev.findVic(v); !ok {
				o.shards++
			}
		}
		//disco:orderinvariant findRow is a pure chain lookup; the loop only counts members
		for row := range o.rows {
			if _, ok := o.prev.findRow(row); !ok {
				o.shards++
			}
		}
	}
	return o
}
