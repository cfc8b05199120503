package forward

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"disco/internal/graph"
	"disco/internal/snapshot"
	"disco/internal/static"
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

// TestTablesMatchWindows: a compiled table is its window and nothing else.
// For every node of a built n=1024 snapshot in both storage regimes, and of
// one repaired child reached through Derive (a node cut off from the graph,
// so its window falls short of k), ids is the window's member IDs and find
// agrees with vicinity.Set.Find on every member, on both neighbours of
// every member's ID and on the two ends of the ID space. An empty window
// finds nothing.
func TestTablesMatchWindows(t *testing.T) {
	const n = 1024
	g := topology.GnmAvgDeg(rand.New(rand.NewSource(1)), n, 8)
	env := static.NewEnv(g, 1)
	ix := make(vicinity.Index, n)
	check := func(label string, tb *Tables) {
		t.Helper()
		for v := graph.NodeID(0); v < n; v++ {
			win, nt := tb.snap.Vicinity(v), tb.node(v, ix)
			if !slices.Equal(nt.ids, win.Members()) {
				t.Fatalf("%s: V(%d) compiled ids %v, window members %v", label, v, nt.ids, win.Members())
			}
			probe := func(q graph.NodeID) {
				want := int32(-1)
				if e, ok := win.Find(q); ok {
					want = int32(slices.Index(nt.ids, e.Node))
				}
				if got := nt.find(q); got != want {
					t.Fatalf("%s: V(%d).find(%d) = %d, the window says %d", label, v, q, got, want)
				}
			}
			probe(0)
			probe(n - 1)
			for _, id := range nt.ids {
				probe(id)
				if id > 0 {
					probe(id - 1)
				}
				if id < n-1 {
					probe(id + 1)
				}
			}
		}
	}
	for _, regime := range []struct {
		name  string
		build func(*graph.Graph, int, []graph.NodeID) (*snapshot.Snapshot, error)
	}{{"exact", snapshot.Build}, {"compact", snapshot.BuildCompact}} {
		base, err := regime.build(g, vicinity.DefaultK(n), env.Landmarks)
		if err != nil {
			t.Fatal(err)
		}
		tb := Compile(base, env.Landmarks, env.LMOf)
		tb.Precompile()
		check(regime.name, tb)

		const cut = graph.NodeID(7)
		var links []graph.EdgeKey
		for _, e := range g.Neighbors(cut) {
			links = append(links, graph.EdgeKey{U: cut, V: e.To}.Norm())
		}
		rep, err := base.ApplyFailures(links)
		if err != nil {
			t.Fatal(err)
		}
		child := tb.Derive(rep, rep.RepairStats())
		if got := child.node(cut, ix).ids; !slices.Equal(got, []graph.NodeID{cut}) {
			t.Fatalf("%s: cut-off node %d compiled ids %v, want itself alone", regime.name, cut, got)
		}
		check(regime.name+" repaired", child)
	}
	empty := vicinity.MakeSet(0, nil)
	nt := compileNode(&empty, n, ix)
	for q := graph.NodeID(0); q < n; q++ {
		if i := nt.find(q); i != -1 {
			t.Fatalf("empty window finds %d at %d", q, i)
		}
	}
}
