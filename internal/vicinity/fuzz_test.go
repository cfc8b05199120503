package vicinity

import (
	"testing"

	"disco/internal/graph"
)

// FuzzFind drives Window.Find — the bitset test and binary search at the
// bottom of every vicinity lookup — against a linear-scan oracle over the
// raw member list. The fuzz input is decoded into an arbitrary sorted set of
// member IDs (each byte advances the next ID by 1..16, so low bytes give
// consecutive IDs and high bytes gaps), built into a window twice — behind
// a one-word filter, where most non-members pass the bitset and the search
// has to reject them, and behind the full-size 8192-bit one — and every
// member, every just-outside neighbor, and the fuzzed probe itself must
// agree with the oracle's index.
func FuzzFind(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 0, 0, 0}, uint16(3))
	f.Add([]byte{0, 7, 0, 0, 15, 0}, uint16(9))
	f.Add([]byte{15, 15, 15, 15}, uint16(31))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(20))
	f.Fuzz(func(t *testing.T, data []byte, probe uint16) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		// Decode a strictly increasing member set.
		const idSpace = 16*1024 + 1
		ids := make([]graph.NodeID, 0, len(data))
		next := graph.NodeID(0)
		for _, b := range data {
			next += graph.NodeID(b%16) + 1
			ids = append(ids, next-1)
		}
		// The oracle: a plain linear scan of the member list.
		oracle := func(q graph.NodeID) int {
			for i, id := range ids {
				if id == q {
					return i
				}
			}
			return -1
		}
		for _, n := range []int{64, idSpace} {
			es := make([]Entry, len(ids))
			for i, id := range ids {
				es[i] = Entry{Node: id, Parent: graph.None}
			}
			w := FromEntries(n, es)
			check := func(q graph.NodeID) {
				if got, want := w.Find(q), oracle(q); got != want {
					t.Fatalf("Find(%v) = %d behind a %d-bit filter, oracle says %d (members %v)", q, got, len(w.filt)*64, want, ids)
				}
			}
			check(graph.NodeID(probe))
			for _, id := range ids {
				check(id)
				if id > 0 {
					check(id - 1)
				}
				check(id + 1)
			}
		}
	})
}
