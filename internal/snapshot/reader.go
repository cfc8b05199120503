package snapshot

import (
	"disco/internal/graph"
	"disco/internal/vicinity"
)

// Reader is a read handle on a snapshot for one goroutine: Snapshot.Vicinity
// decoding a compact base window into one scratch the Reader owns, so the
// whole-window reads of a routing fork (Disco's V(s), Up-Down's windows)
// allocate nothing once warm. Overlaid (repaired) windows and exact-store
// windows are stored whole and pass through, so a Reader on an exact
// snapshot allocates nothing; the scratch is allocated on the first compact
// decode. Lookups do not go through a Reader: Snapshot.VicinityContains and
// Snapshot.AppendVicinityPath read a compact window in place and decode
// nothing.
//
// A window a Reader returns is valid until the Reader's next Vicinity. A
// Reader is not safe for concurrent use; the Snapshot's own reads are.
type Reader struct {
	s     *Snapshot
	sc    *vicinity.Scratch // the decode target; nil until the first compact decode
	fills int               // compact base windows decoded (Fills)
}

// Reader returns a read handle on s.
func (s *Snapshot) Reader() Reader { return Reader{s: s} }

// Vicinity returns V(v), as Snapshot.Vicinity does; see Reader for how
// long it is valid.
func (h *Reader) Vicinity(v graph.NodeID) *vicinity.Window {
	if h.s.compact && h.s.ov.window(v) == nil {
		if h.sc == nil {
			h.sc = h.s.newScratch()
		}
		h.fills++
	}
	return h.s.vicinityInto(v, h.sc)
}

// Fills returns how many compact base windows h has decoded: one for every
// Vicinity that neither an overlay nor an exact store answers.
//
//disco:fixture core's benchmarks report window fills per route pair
func (h *Reader) Fills() int { return h.fills }
