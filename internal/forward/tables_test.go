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

// TestCompileNodeParents: an installed table's parent indices are the
// positions a binary search of the window's member IDs finds for each
// member's shortest-path parent, -1 for the owner, in both storage regimes
// — and a window whose parent is not a member panics with the outside-the-
// window message instead of storing whatever index the search lands on.
func TestCompileNodeParents(t *testing.T) {
	const n = 300
	g := topology.GnmAvgDeg(rand.New(rand.NewSource(2)), n, 6)
	env := static.NewEnv(g, 1)
	k := vicinity.DefaultK(n)
	sp := graph.NewSSSP(g)
	for _, regime := range []struct {
		name  string
		build func(*graph.Graph, int, []graph.NodeID) (*snapshot.Snapshot, error)
	}{{"exact", snapshot.Build}, {"compact", snapshot.BuildCompact}} {
		snap, err := regime.build(g, k, env.Landmarks)
		if err != nil {
			t.Fatal(err)
		}
		tb := Compile(snap, env.Landmarks, env.LMOf)
		for v := graph.NodeID(0); v < n; v++ {
			w := tb.node(v)
			ids := make([]graph.NodeID, w.Size())
			for i := range ids {
				ids[i] = w.ID(i)
			}
			sp.RunK(v, k)
			for i, id := range ids {
				want := -1
				if p := sp.Parent(id); p != graph.None {
					j, ok := slices.BinarySearch(ids, p)
					if !ok {
						t.Fatalf("%s: V(%d): parent %d of %d is not a member", regime.name, v, p, id)
					}
					want = j
				}
				if got := w.Parent(i); got != want {
					t.Fatalf("%s: V(%d) entry %d: parent index %d, want %d", regime.name, v, i, got, want)
				}
			}
		}
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "parent 7 of member 9 is outside the vicinity window") {
			t.Fatalf("recovered %q, want the outside-the-window panic", msg)
		}
	}()
	vicinity.FromEntries(n, []vicinity.Entry{
		{Node: 4, Parent: graph.None},
		{Node: 9, Parent: 7, Dist: 1}, // 7 is no member
	})
}

// TestTablesMatchWindows: an installed table is its snapshot's window and
// nothing else. For every node of a built n=1024 snapshot in both storage
// regimes, and of one repaired child reached through Derive (a node cut off
// from the graph, so its window falls short of k), the installed window is
// the snapshot's — the stored one itself in the exact regime, an equal
// decode in the compact one — and Find agrees with a linear scan of its
// members on every member, on both neighbours of every member's ID and on
// the two ends of the ID space. An empty window finds nothing.
func TestTablesMatchWindows(t *testing.T) {
	const n = 1024
	g := topology.GnmAvgDeg(rand.New(rand.NewSource(1)), n, 8)
	env := static.NewEnv(g, 1)
	check := func(label string, tb *Tables) {
		t.Helper()
		for v := graph.NodeID(0); v < n; v++ {
			win, nt := tb.snap.Vicinity(v), tb.node(v)
			if !tb.snap.Compact() && nt != win {
				t.Fatalf("%s: V(%d) installed a copy of the stored window", label, v)
			}
			if nt.Size() != win.Size() {
				t.Fatalf("%s: V(%d) installed %d members, the window has %d", label, v, nt.Size(), win.Size())
			}
			for i := 0; i < win.Size(); i++ {
				if nt.ID(i) != win.ID(i) || nt.Parent(i) != win.Parent(i) || nt.Dist(i) != win.Dist(i) {
					t.Fatalf("%s: V(%d) member %d differs from the window", label, v, i)
				}
			}
			probe := func(q graph.NodeID) {
				want := -1
				for i := 0; i < win.Size(); i++ {
					if win.ID(i) == q {
						want = i
					}
				}
				if got := nt.Find(q); got != want {
					t.Fatalf("%s: V(%d).Find(%d) = %d, a scan of the window says %d", label, v, q, got, want)
				}
			}
			probe(0)
			probe(n - 1)
			for i := 0; i < nt.Size(); i++ {
				id := nt.ID(i)
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
		if w := child.node(cut); w.Size() != 1 || w.ID(0) != cut {
			t.Fatalf("%s: cut-off node %d installed %d members, want itself alone", regime.name, cut, w.Size())
		}
		check(regime.name+" repaired", child)

		empty, err := regime.build(g, 0, env.Landmarks)
		if err != nil {
			t.Fatal(err)
		}
		w := Compile(empty, env.Landmarks, env.LMOf).node(3)
		for q := graph.NodeID(0); q < n; q++ {
			if i := w.Find(q); i != -1 {
				t.Fatalf("%s: empty window finds %d at %d", regime.name, q, i)
			}
		}
	}
}
