package snapshot

import (
	"unsafe"

	"disco/internal/graph"
	"disco/internal/vicinity"
)

// Element sizes derived from the live struct layouts with unsafe.Sizeof,
// so the footprint report cannot silently drift when an encoding change
// reshapes an entry — the accounting bug the old hardcoded 16/40-byte
// constants invited.
const (
	windowBytes = int64(unsafe.Sizeof(vicinity.Window{}))
	nodeBytes   = int64(unsafe.Sizeof(graph.NodeID(0)))
	int32Bytes  = int64(unsafe.Sizeof(int32(0)))
	off64Bytes  = int64(unsafe.Sizeof(int64(0)))
	f64Bytes    = int64(unsafe.Sizeof(float64(0)))
	u64Bytes    = int64(unsafe.Sizeof(uint64(0)))
	ptrBytes    = int64(unsafe.Sizeof((*vicinity.Window)(nil)))

	sparseRowBytes = int64(unsafe.Sizeof(sparseRow{}))
	slotBytes      = int64(unsafe.Sizeof(encodedWindow{}))
)

// Bytes returns the snapshot's backing-array footprint in bytes — the
// shared cost that replaces every worker's private caches, in whichever
// storage regime the snapshot was built, plus this snapshot's overlay
// table: its two slot arrays and every overlaid shard once (an exact
// chain's recomputed windows in their column layout, a compact chain's at
// their encoded length plus their slot, overlaid forest rows as their
// patches and bitset, plus the flat row over an exact store). This is the
// retained-heap measure the chain-bound test caps. It leaves out what an
// event's blob holds past its windows that the snapshot still reads: the
// word of slack, and windows a later event overlaid again.
// Used by the memory-regression benchmark, the chain-bound test and the
// -memprofile report.
func (s *Snapshot) Bytes() int64 {
	total := int64(len(s.landmarks))*nodeBytes + int64(len(s.lmRow))*int32Bytes +
		int64(len(s.short))*nodeBytes
	if o := s.ov; o != nil {
		total += int64(len(o.vic)+len(o.enc)+len(o.rows)) * ptrBytes
		for _, win := range o.vic {
			if win != nil {
				total += windowBytes + win.Bytes()
			}
		}
		for v, ew := range o.enc {
			if ew != nil {
				p := s.pointed(graph.NodeID(v))
				total += slotBytes + int64(len(p.bytes()))
			}
		}
		for _, sr := range o.rows {
			if sr != nil {
				total += sr.bytes()
			}
		}
	}
	if s.cs != nil {
		return total + s.cs.storeBytes()
	}
	total += int64(len(s.wins))*windowBytes + int64(len(s.parents))*nodeBytes
	for v := range s.wins {
		total += s.wins[v].Bytes()
	}
	return total
}
