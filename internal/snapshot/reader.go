package snapshot

import (
	"disco/internal/graph"
	"disco/internal/vicinity"
)

// cacheSlots is how many decoded compact windows a Reader keeps, direct
// mapped by owner: V(v) sits in slot v mod cacheSlots. A route reads few
// distinct windows and some of them more than once — on churn-compact's
// map (router-like n=2048, seed 1, k=151) a Disco first and later packet
// make 15.7 window reads of 6.9 distinct windows (2,000 seeded pairs) —
// but most reads are lookups that miss, which decode nothing. What is
// left to cache is the windows a route reads whole or finds its target
// in: on a fork re-made every 150 pairs, as churn-compact's probe does
// (BenchmarkRepairedRoutes/compact-cold), 1.84, 1.80 and 1.73 fills a pair
// at 16, 32 and 64 slots; a Reader that filled a slot on every lookup made
// 6.59 at 32.
const cacheSlots = 32

// Reader is a read handle on a snapshot for one goroutine: the vicinity
// reads of the Snapshot methods of the same names, with the compact
// store's decoded windows kept in a small direct-mapped cache. A lookup of
// an owner the cache does not hold runs the store's pointed probe
// (windowIndex) and decodes nothing when it misses; only a hit, or a read
// of the whole window, decodes the window into its owner's slot. Overlaid
// (repaired) windows and exact-store windows are stored whole and pass
// through, so a Reader on an exact snapshot allocates nothing; the slots
// are allocated on the first compact fill.
//
// A window a Reader returns is valid until the Reader's next read: the
// next read may decode another owner into the same slot. A lookup that
// misses returns no window. A Reader is not safe for concurrent use; the
// Snapshot's own reads are.
type Reader struct {
	s     *Snapshot
	cs    *compactStore // s's store when compact, else nil
	slots *[cacheSlots]slot
	fills int // windows decoded into slots (Fills)
}

// slot is one cache entry: owner's decoded window.
type slot struct {
	owner graph.NodeID
	sc    *vicinity.Scratch // nil until first filled
}

// Reader returns a read handle on s with an empty cache.
func (s *Snapshot) Reader() Reader {
	cs, _ := s.store.(*compactStore)
	return Reader{s: s, cs: cs}
}

// held returns V(v) when h has it whole without a decode — overlaid, or in
// its slot — and nil otherwise. The store is compact (the exact one is
// read through the Snapshot).
func (h *Reader) held(v graph.NodeID) *vicinity.Window {
	if win := h.s.ov.window(v); win != nil {
		return win
	}
	if h.slots == nil {
		return nil
	}
	if sl := &h.slots[v&(cacheSlots-1)]; sl.sc != nil && sl.owner == v {
		return sl.sc.Window()
	}
	return nil
}

// fill decodes V(v), a base window, into its slot.
func (h *Reader) fill(v graph.NodeID) *vicinity.Window {
	if h.slots == nil {
		h.slots = new([cacheSlots]slot)
	}
	sl := &h.slots[v&(cacheSlots-1)]
	if sl.sc == nil {
		sl.sc = h.cs.newScratch()
	}
	sl.owner = v
	h.fills++
	return h.cs.window(v, sl.sc)
}

// Vicinity returns V(v), as Snapshot.Vicinity does; see Reader for how
// long it is valid.
func (h *Reader) Vicinity(v graph.NodeID) *vicinity.Window {
	if h.cs == nil {
		return h.s.Vicinity(v)
	}
	if win := h.held(v); win != nil {
		return win
	}
	return h.fill(v)
}

// VicinityFind returns V(v) and w's index in it, or -1 when w is not a
// member, as Snapshot.VicinityFind does: on a miss the window is nil over
// a compact store. See Reader for how long a window is valid.
func (h *Reader) VicinityFind(v, w graph.NodeID) (*vicinity.Window, int) {
	if h.cs == nil {
		return h.s.VicinityFind(v, w)
	}
	if win := h.held(v); win != nil {
		if i := win.Find(w); i >= 0 {
			return win, i
		}
		return nil, -1
	}
	if i := h.cs.windowIndex(v, w); i >= 0 {
		return h.fill(v), i
	}
	return nil, -1
}

// VicinityContains reports w ∈ V(v).
func (h *Reader) VicinityContains(v, w graph.NodeID) bool {
	if h.cs == nil {
		return h.s.VicinityContains(v, w)
	}
	if win := h.held(v); win != nil {
		return win.Contains(w)
	}
	return h.cs.windowIndex(v, w) >= 0
}

// Cached returns how many windows h holds decoded: 0 on an exact snapshot,
// whatever was read.
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

// Fills returns how many windows h has decoded into its slots: every
// whole-window read and every hit on an owner it did not hold.
//
//disco:fixture core's benchmarks report window fills per route pair
func (h *Reader) Fills() int { return h.fills }
