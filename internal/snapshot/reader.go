package snapshot

import (
	"disco/internal/bits"
	"disco/internal/graph"
	"disco/internal/vicinity"
)

// cacheSlots is how many decoded compact windows a Reader keeps, direct
// mapped by owner: V(v) sits in slot v mod cacheSlots. A route reads few
// distinct windows and most of them more than once — on churn-compact's
// map (router-like n=2048, seed 1, k=151) a Disco first and later packet
// make 15.7 window reads of 6.9 distinct windows (2,000 seeded pairs) —
// so a small table catches the repeats. Measured there on a 150-pair
// probe: 8.2, 6.8 and 5.8 window fills a pair at 16, 32 and 64 slots.
const cacheSlots = 32

// Reader is a read handle on a snapshot for one goroutine: the vicinity
// reads of the Snapshot methods of the same names, with the compact
// store's decoded windows kept in a small direct-mapped cache. Filling a
// slot decodes a window's member IDs and membership only; its parent and
// distance columns are decoded on the first lookup that finds its target,
// or when the whole window is asked for. Overlaid (repaired) windows and
// exact-store windows are stored whole and pass through, so a Reader on an
// exact snapshot allocates nothing; the slots are allocated on the first
// compact read.
//
// A window a Reader returns is valid until the Reader's next read: the
// next read may decode another owner into the same slot. A lookup that
// misses returns no window, so a half-decoded one never escapes. A Reader
// is not safe for concurrent use; the Snapshot's own reads are.
type Reader struct {
	s     *Snapshot
	cs    *compactStore // s's store when compact, else nil
	slots *[cacheSlots]slot
}

// slot is one cache entry: owner's window, whole or with the member IDs
// only, and the reader where the rest of its encoding starts.
type slot struct {
	owner graph.NodeID
	sc    *vicinity.Scratch // nil until first filled
	rest  bits.Reader       // at owner's parent section while !whole
	whole bool
}

// Reader returns a read handle on s with an empty cache.
func (s *Snapshot) Reader() Reader {
	cs, _ := s.store.(*compactStore)
	return Reader{s: s, cs: cs}
}

// lookup returns V(v) with at least its member IDs and membership decoded,
// and its cache slot — nil for an overlaid window, stored whole. The store
// is compact (the exact one is read through the Snapshot).
func (h *Reader) lookup(v graph.NodeID) (*vicinity.Window, *slot) {
	if win := h.s.ov.window(v); win != nil {
		return win, nil
	}
	if h.slots == nil {
		h.slots = new([cacheSlots]slot)
	}
	sl := &h.slots[v&(cacheSlots-1)]
	if sl.sc == nil {
		sl.sc = h.cs.newScratch()
	} else if sl.owner == v {
		return sl.sc.Window(), sl
	}
	sl.owner, sl.rest, sl.whole = v, h.cs.decodeIDs(sl.sc, v), false
	return sl.sc.Window(), sl
}

// finish decodes the rest of a slot's window, once.
func (h *Reader) finish(sl *slot) {
	if sl != nil && !sl.whole {
		h.cs.decodeColumns(sl.sc, &sl.rest, sl.owner)
		sl.whole = true
	}
}

// Vicinity returns V(v), as Snapshot.Vicinity does; see Reader for how
// long it is valid.
func (h *Reader) Vicinity(v graph.NodeID) *vicinity.Window {
	if h.cs == nil {
		return h.s.Vicinity(v)
	}
	win, sl := h.lookup(v)
	h.finish(sl)
	return win
}

// VicinityFind returns V(v) and w's index in it, or -1 when w is not a
// member, as Snapshot.VicinityFind does: on a miss the window may be nil,
// and from the cache it always is. See Reader for how long a window is
// valid.
func (h *Reader) VicinityFind(v, w graph.NodeID) (*vicinity.Window, int) {
	if h.cs == nil {
		return h.s.VicinityFind(v, w)
	}
	win, sl := h.lookup(v)
	i := win.Find(w)
	if i < 0 {
		return nil, -1
	}
	h.finish(sl)
	return win, i
}

// VicinityContains reports w ∈ V(v).
func (h *Reader) VicinityContains(v, w graph.NodeID) bool {
	if h.cs == nil {
		return h.s.VicinityContains(v, w)
	}
	win, _ := h.lookup(v)
	return win.Contains(w)
}

// Cached returns how many windows h holds decoded, whole or in part: 0 on
// an exact snapshot, whatever was read.
//
//disco:fixture core's tests check that an exact fork decodes no window
func (h *Reader) Cached() int {
	if h.slots == nil {
		return 0
	}
	n := 0
	for i := range h.slots {
		if h.slots[i].sc != nil {
			n++
		}
	}
	return n
}
