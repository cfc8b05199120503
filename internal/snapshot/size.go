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
	ptrBytes    = int64(unsafe.Sizeof((*vicinity.Window)(nil)))
	sliceBytes  = int64(unsafe.Sizeof([]graph.NodeID(nil)))
)

// Bytes returns the snapshot's backing-array footprint in bytes — the
// shared cost that replaces every worker's private caches, in whichever
// storage regime the snapshot was built, plus this snapshot's overlay
// table: its two slot arrays and every overlaid shard once (recomputed
// windows in their column layout, recomputed forest rows as plain parent
// arrays). This is the retained-heap measure the chain-bound test caps.
// Used by the memory-regression benchmark, the chain-bound test and the
// -memprofile report.
func (s *Snapshot) Bytes() int64 {
	total := int64(len(s.landmarks))*nodeBytes + int64(len(s.lmRow))*int32Bytes +
		int64(len(s.short))*nodeBytes
	if o := s.ov; o != nil {
		total += int64(len(o.vic))*ptrBytes + int64(len(o.rows))*sliceBytes
		for _, win := range o.vic {
			if win != nil {
				total += windowBytes + win.Bytes()
			}
		}
		for _, prow := range o.rows {
			total += int64(len(prow)) * nodeBytes
		}
	}
	return total + s.store.storeBytes()
}
