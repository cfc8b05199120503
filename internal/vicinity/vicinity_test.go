package vicinity

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"disco/internal/graph"
	"disco/internal/topology"
)

func TestDefaultK(t *testing.T) {
	if DefaultK(1) != 1 || DefaultK(0) != 0 {
		t.Error("degenerate sizes")
	}
	// sqrt(1024*10) = 101.2 -> 102
	if k := DefaultK(1024); k != 102 {
		t.Errorf("DefaultK(1024)=%d want 102", k)
	}
	if DefaultK(4) > 4 {
		t.Error("K must be clamped to n")
	}
}

func TestBuildLineGraph(t *testing.T) {
	g := topology.Line(10)
	tab := Build(g, 3, nil)
	v := tab.Of(5)
	if v.Size() != 3 {
		t.Fatalf("size %d want 3", v.Size())
	}
	// Closest 3 to node 5 on a line: {5, 4, 6} (ties by ID: 4 before 6).
	for _, want := range []graph.NodeID{4, 5, 6} {
		if !v.Contains(want) {
			t.Errorf("vicinity of 5 should contain %d: %v", want, v.Members())
		}
	}
	if v.Dist(5) != 0 || v.Dist(4) != 1 {
		t.Errorf("distances wrong: %v %v", v.Dist(5), v.Dist(4))
	}
	if !math.IsInf(v.Dist(9), 1) {
		t.Error("non-member distance must be Inf")
	}
	if v.Radius() != 1 {
		t.Errorf("radius %v want 1", v.Radius())
	}
}

func TestPathReconstruction(t *testing.T) {
	g := topology.Grid(6, 6)
	k := 12
	tab := Build(g, k, nil)
	for src := 0; src < g.N(); src++ {
		set := tab.Of(graph.NodeID(src))
		for _, e := range set.Entries {
			p := set.PathTo(e.Node)
			if p[0] != graph.NodeID(src) || p[len(p)-1] != e.Node {
				t.Fatalf("path endpoints wrong: %v", p)
			}
			if got := g.PathLength(p); got != e.Dist {
				t.Fatalf("path length %v want %v", got, e.Dist)
			}
		}
	}
}

func TestFirstHop(t *testing.T) {
	g := topology.Line(6)
	tab := Build(g, 4, nil)
	v := tab.Of(0)
	if h := v.FirstHopTo(3); h != 1 {
		t.Errorf("first hop to 3 is %d want 1", h)
	}
	if h := v.FirstHopTo(0); h != graph.None {
		t.Errorf("first hop to self must be None, got %d", h)
	}
	if h := v.FirstHopTo(5); h != graph.None {
		t.Errorf("first hop to non-member must be None, got %d", h)
	}
}

func TestVicinityIsKClosest(t *testing.T) {
	// Brute-force check on random weighted graphs: V(v) must be exactly
	// the k nodes with smallest (dist, id).
	rng := rand.New(rand.NewSource(11))
	g := topology.Geometric(rng, 150, 8)
	k := 20
	tab := Build(g, k, nil)
	s := graph.NewSSSP(g)
	for src := 0; src < g.N(); src += 13 {
		s.Run(graph.NodeID(src))
		type dn struct {
			d float64
			v graph.NodeID
		}
		all := make([]dn, 0, g.N())
		for v := 0; v < g.N(); v++ {
			all = append(all, dn{d: s.Dist(graph.NodeID(v)), v: graph.NodeID(v)})
		}
		// selection sort of top k for clarity
		for i := 0; i < k; i++ {
			m := i
			for j := i + 1; j < len(all); j++ {
				if all[j].d < all[m].d || (all[j].d == all[m].d && all[j].v < all[m].v) {
					m = j
				}
			}
			all[i], all[m] = all[m], all[i]
		}
		set := tab.Of(graph.NodeID(src))
		for i := 0; i < k; i++ {
			if !set.Contains(all[i].v) {
				t.Fatalf("src %d: %d-closest node %d (d=%v) missing from vicinity",
					src, i, all[i].v, all[i].d)
			}
		}
	}
}

func TestAsymmetry(t *testing.T) {
	// s ∈ V(t) does not imply t ∈ V(s) (§4.2). Construct: hub 0 with many
	// close leaves; distant node far away. V(far) includes hub, but
	// V(hub) (small k) holds only leaves.
	g := graph.New(12)
	for i := 1; i <= 10; i++ {
		g.AddEdge(0, graph.NodeID(i), 1)
	}
	g.AddEdge(10, 11, 10) // node 11 hangs far off leaf 10
	g.Finalize()
	tab := Build(g, 5, nil)
	vFar := tab.Of(11)
	vHub := tab.Of(0)
	if !vFar.Contains(10) {
		t.Fatal("far node's vicinity should reach its neighbor")
	}
	if vHub.Contains(11) {
		t.Fatal("hub's small vicinity must not contain the far node")
	}
}

func TestBuildSampledSources(t *testing.T) {
	g := topology.Ring(30)
	tab := Build(g, 5, []graph.NodeID{3, 7})
	if tab.Of(3) == nil || tab.Of(7) == nil {
		t.Fatal("requested vicinities missing")
	}
	if tab.Of(0) != nil {
		t.Fatal("unrequested vicinity should be nil")
	}
	srcs := tab.Sources()
	if len(srcs) != 2 || srcs[0] != 3 || srcs[1] != 7 {
		t.Fatalf("sources %v", srcs)
	}
}

func TestBuildOneMatchesTable(t *testing.T) {
	g := topology.Grid(5, 5)
	tab := Build(g, 7, nil)
	one := BuildOne(g, 12, 7)
	want := tab.Of(12)
	if one.Size() != want.Size() {
		t.Fatalf("sizes differ: %d vs %d", one.Size(), want.Size())
	}
	for i := range one.Entries {
		if one.Entries[i] != want.Entries[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestCoveringProperty(t *testing.T) {
	// The lemma that makes path-vector converge to exact vicinities (and
	// To-Destination splices optimal): if w ∈ V(v), then w ∈ V(u) for u
	// the first hop on v's vicinity path to w — under the consistent
	// (dist, id) tie-breaking this implementation uses throughout.
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		if seed%2 == 0 {
			g = topology.Geometric(rng, 250, 8)
		} else {
			g = topology.Gnm(rng, 250, 1000)
		}
		tab := Build(g, 25, nil)
		for v := 0; v < g.N(); v++ {
			set := tab.Of(graph.NodeID(v))
			for _, e := range set.Entries {
				if e.Node == graph.NodeID(v) {
					continue
				}
				u := set.FirstHopTo(e.Node)
				if u == e.Node {
					continue // direct neighbor: trivially in its own vicinity
				}
				if !tab.Of(u).Contains(e.Node) {
					t.Fatalf("seed %d: covering violated: %d ∈ V(%d) but not in V(%d) (first hop)",
						seed, e.Node, v, u)
				}
			}
		}
	}
}

func TestSelfAlwaysMember(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(5)), 64, 256)
	tab := Build(g, 8, nil)
	for v := 0; v < g.N(); v++ {
		set := tab.Of(graph.NodeID(v))
		if !set.Contains(graph.NodeID(v)) {
			t.Fatalf("node %d missing from own vicinity", v)
		}
		if set.Dist(graph.NodeID(v)) != 0 {
			t.Fatalf("self distance nonzero")
		}
	}
}

// TestFillMatchesSort is Fill's property test: the window it merges out of
// the level kernel's runs (or sorts, after the heap kernel) is the settle
// order sorted by member ID, entry for entry — every source, on shapes that
// make the ball deep (ring, line: a level holds two nodes, depth ≈ k/2),
// wide (G(n,m), router-like), in between (grid), weighted (geometric: the
// heap path), and cut short by disconnection (fewer than k settled, what a
// repair recomputes after a partitioning failure), at k = 1, a mid value
// and k = n.
func TestFillMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gnm := topology.GnmAvgDeg(rng, 300, 6)
	dead := make([]bool, gnm.M())
	for i := range dead {
		dead[i] = rng.Intn(2) == 0
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ring", topology.Ring(257)},
		{"line", topology.Line(200)},
		{"grid", topology.Grid(14, 19)},
		{"gnm", gnm},
		{"routerlike", topology.RouterLike(rng, 400)},
		{"geometric", topology.Geometric(rng, 250, 8)},
		{"partitioned", gnm.WithoutEdges(dead)},
	} {
		n := tc.g.N()
		sp := graph.NewSSSP(tc.g)
		for _, k := range []int{1, 2, DefaultK(n), n/2 + 1, n} {
			for src := graph.NodeID(0); int(src) < n; src++ {
				sp.RunK(src, k)
				want := make([]Entry, len(sp.Order()))
				for j, w := range sp.Order() {
					want[j] = Entry{Node: w, Parent: sp.Parent(w), Dist: sp.Dist(w)}
				}
				slices.SortFunc(want, func(a, b Entry) int { return cmp.Compare(a.Node, b.Node) })
				got := make([]Entry, len(want))
				Fill(got, sp)
				if !slices.Equal(got, want) {
					t.Fatalf("%s k=%d src=%d (%d settled, depth %d):\n got  %v\n want %v",
						tc.name, k, src, len(want), sp.Depth(), got, want)
				}
			}
		}
		if tc.name == "partitioned" {
			if _, comps := tc.g.Components(); comps < 2 {
				t.Fatalf("partitioned: the failed graph is still connected")
			}
		}
	}
}

// TestIndexParent: Index.Parent is the binary search it replaces, on every
// window of a table, through one never-cleared scratch; and a parent that
// is not a member panics instead of passing for one.
func TestIndexParent(t *testing.T) {
	g := topology.GnmAvgDeg(rand.New(rand.NewSource(3)), 200, 5)
	tab := Build(g, DefaultK(200), nil)
	ix := make(Index, g.N())
	for _, v := range tab.Sources() {
		win := tab.Of(v).Entries
		ix.Bind(win)
		for i, e := range win {
			want := int32(-1)
			if e.Parent != graph.None {
				j, ok := slices.BinarySearchFunc(win, e.Parent, func(e Entry, p graph.NodeID) int { return cmp.Compare(e.Node, p) })
				if !ok {
					t.Fatalf("V(%d): parent %d of %d is not a member", v, e.Parent, e.Node)
				}
				want = int32(j)
			}
			if got := ix.Parent(win, i); got != want {
				t.Fatalf("V(%d) entry %d: parent index %d, want %d", v, i, got, want)
			}
		}
	}
	// The scratch still holds the last window's positions. A window whose
	// parent is one of those nodes (a stale position that is in range),
	// lies outside the ID space, or is negative is corrupt and must say so.
	last := tab.Of(tab.Sources()[len(tab.Sources())-1]).Entries
	stale := last[1].Node
	x, y := (stale+1)%graph.NodeID(g.N()), (stale+2)%graph.NodeID(g.N())
	for _, parent := range []graph.NodeID{stale, graph.NodeID(g.N()), -7} {
		corrupt := []Entry{{Node: min(x, y), Parent: graph.None}, {Node: max(x, y), Parent: parent, Dist: 1}}
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "outside the vicinity window") {
					t.Fatalf("parent %d: recovered %q, want the outside-the-window panic", parent, msg)
				}
			}()
			ix.Bind(corrupt)
			ix.Parent(corrupt, 1)
		}()
	}
}
