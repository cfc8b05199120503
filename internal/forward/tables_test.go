package forward

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"disco/internal/graph"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

// TestCompileNodeParents: a compiled table's parent indices are the
// positions a binary search of the window finds, -1 for the owner — and a
// window whose parent is not a member panics with the compact encoder's
// message instead of storing whatever index the search lands on.
func TestCompileNodeParents(t *testing.T) {
	const n = 300
	g := topology.GnmAvgDeg(rand.New(rand.NewSource(2)), n, 6)
	tab := vicinity.Build(g, vicinity.DefaultK(n), nil)
	ix := make(vicinity.Index, n)
	for v := graph.NodeID(0); v < n; v++ {
		nt := compileNode(tab.Of(v), n, ix)
		for i, e := range tab.Of(v).Entries {
			want := int32(-1)
			if e.Parent != graph.None {
				j, _ := slices.BinarySearch(nt.ids, e.Parent)
				want = int32(j)
			}
			if nt.ids[i] != e.Node || nt.parent[i] != want {
				t.Fatalf("V(%d) entry %d: compiled (%d, parent index %d), want (%d, %d)", v, i, nt.ids[i], nt.parent[i], e.Node, want)
			}
		}
	}
	corrupt := vicinity.MakeSet(4, []vicinity.Entry{
		{Node: 4, Parent: graph.None},
		{Node: 9, Parent: 7, Dist: 1}, // 7 is no member
	})
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "parent 7 of member 9 is outside the vicinity window") {
			t.Fatalf("recovered %q, want the outside-the-window panic", msg)
		}
	}()
	compileNode(&corrupt, n, ix)
}
