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
	entryBytes = int64(unsafe.Sizeof(vicinity.Entry{}))
	setBytes   = int64(unsafe.Sizeof(vicinity.Set{}))
	nodeBytes  = int64(unsafe.Sizeof(graph.NodeID(0)))
	int32Bytes = int64(unsafe.Sizeof(int32(0)))
	offBytes   = int64(unsafe.Sizeof(int(0)))
	off64Bytes = int64(unsafe.Sizeof(int64(0)))
	f32Bytes   = int64(unsafe.Sizeof(float32(0)))
	ptrBytes   = int64(unsafe.Sizeof((*vicinity.Set)(nil)))
	sliceBytes = int64(unsafe.Sizeof([]graph.NodeID(nil)))
)

// Bytes returns the snapshot's backing-array footprint in bytes — the
// shared cost that replaces every worker's private caches, in whichever
// storage regime the snapshot was built, plus this snapshot's overlay
// table: its two slot arrays and every overlaid shard once (recomputed
// windows as exact entry slices, recomputed forest rows as plain parent
// arrays). This is the retained-heap measure the chain-bound test caps.
// Used by the memory-regression benchmark, the chain-bound test and the
// -memprofile report.
func (s *Snapshot) Bytes() int64 {
	total := int64(len(s.landmarks))*nodeBytes + int64(len(s.lmRow))*int32Bytes +
		int64(len(s.short))*nodeBytes
	if o := s.ov; o != nil {
		total += int64(len(o.vic))*ptrBytes + int64(len(o.rows))*sliceBytes
		for _, set := range o.vic {
			if set != nil {
				total += setBytes + int64(len(set.Entries))*entryBytes
			}
		}
		for _, prow := range o.rows {
			total += int64(len(prow)) * nodeBytes
		}
	}
	return total + s.store.storeBytes()
}
