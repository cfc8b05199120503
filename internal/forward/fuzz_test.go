package forward

import (
	"testing"

	"disco/internal/graph"
	"disco/internal/vicinity"
)

// FuzzIntervalLookup drives nodeTable.find — the bitset test and binary
// search at the bottom of every table lookup — against a linear-scan oracle
// over the raw member list. (There is no interval in it: the name is kept
// because the target's ten suite IDs — itself, five seeds, four corpus
// files — are pinned by name; CHANGES.md, PR 24.) The fuzz input is
// decoded into an arbitrary sorted set of member IDs (each byte advances
// the next ID by 1..16, so low bytes give consecutive IDs and high bytes
// gaps), compileNode builds the table twice — behind a one-word filter,
// where most non-members pass the bitset and the search has to reject them,
// and behind the 8192-bit one — and every member, every just-outside
// neighbor, and the fuzzed probe itself must agree with the oracle's index.
func FuzzIntervalLookup(f *testing.F) {
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
		es := make([]vicinity.Entry, 0, len(data))
		next := graph.NodeID(0)
		for _, b := range data {
			next += graph.NodeID(b%16) + 1
			es = append(es, vicinity.Entry{Node: next - 1, Parent: graph.None})
		}
		set := vicinity.MakeSet(graph.None, es)
		// The oracle: a plain linear scan of the member list.
		oracle := func(t graph.NodeID) int32 {
			for i := range es {
				if es[i].Node == t {
					return int32(i)
				}
			}
			return -1
		}
		ix := make(vicinity.Index, idSpace)
		for _, n := range []int{64, idSpace} {
			nt := compileNode(&set, n, ix)
			check := func(q graph.NodeID) {
				if got, want := nt.find(q), oracle(q); got != want {
					t.Fatalf("find(%v) = %d behind a %d-bit filter, oracle says %d (members %v)", q, got, nt.fmask+1, want, nt.ids)
				}
			}
			check(graph.NodeID(probe))
			for _, id := range nt.ids {
				check(id)
				if id > 0 {
					check(id - 1)
				}
				check(id + 1)
			}
		}
	})
}
