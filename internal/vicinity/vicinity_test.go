package vicinity

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"disco/internal/graph"
	"disco/internal/topology"
)

// members lists a window's member IDs, for failure messages.
func members(w *Window) []graph.NodeID {
	out := make([]graph.NodeID, w.Size())
	for i := range out {
		out[i] = w.ID(i)
	}
	return out
}

// parentID is member i's parent as a node ID, None for the owner.
func parentID(w *Window, i int) graph.NodeID {
	if p := w.Parent(i); p >= 0 {
		return w.ID(p)
	}
	return graph.None
}

// windows fills the k-member vicinity of every node of g, indexed by node.
func windows(g *graph.Graph, k int) []Window {
	wins := MakeWindows(g, g.N(), k)
	b := NewBall(g)
	for v := range wins {
		b.Fill(&wins[v], graph.NodeID(v), k)
	}
	return wins
}

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
	tab := windows(g, 3)
	v := &tab[5]
	if v.Size() != 3 {
		t.Fatalf("size %d want 3", v.Size())
	}
	// Closest 3 to node 5 on a line: {5, 4, 6} (ties by ID: 4 before 6).
	for _, want := range []graph.NodeID{4, 5, 6} {
		if !v.Contains(want) {
			t.Errorf("vicinity of 5 should contain %d: %v", want, members(v))
		}
	}
	if v.Dist(v.Find(5)) != 0 || v.Dist(v.Find(4)) != 1 {
		t.Errorf("distances wrong: %v %v", v.Dist(v.Find(5)), v.Dist(v.Find(4)))
	}
	if v.Find(9) != -1 {
		t.Error("a non-member must not be found")
	}
	if v.Radius() != 1 {
		t.Errorf("radius %v want 1", v.Radius())
	}
}

func TestPathReconstruction(t *testing.T) {
	g := topology.Grid(6, 6)
	k := 12
	tab := windows(g, k)
	for src := 0; src < g.N(); src++ {
		w := &tab[graph.NodeID(src)]
		for i := 0; i < w.Size(); i++ {
			p := w.AppendPath([]graph.NodeID{-5}, i)[1:]
			if p[0] != graph.NodeID(src) || p[len(p)-1] != w.ID(i) {
				t.Fatalf("path endpoints wrong: %v", p)
			}
			if got := g.PathLength(p); got != w.Dist(i) {
				t.Fatalf("path length %v want %v", got, w.Dist(i))
			}
		}
	}
}

// TestFirstHop: the first hop toward a member is the second node of its
// path, and the owner's own path is the owner alone.
func TestFirstHop(t *testing.T) {
	g := topology.Line(6)
	tab := windows(g, 4)
	v := &tab[0]
	if p := v.AppendPath(nil, v.Find(3)); len(p) < 2 || p[1] != 1 {
		t.Errorf("path to 3 is %v, want first hop 1", p)
	}
	if p := v.AppendPath(nil, v.Find(0)); len(p) != 1 {
		t.Errorf("path to self must be the owner alone, got %v", p)
	}
	if v.Find(5) != -1 {
		t.Error("a non-member must not be found")
	}
}

func TestVicinityIsKClosest(t *testing.T) {
	// Brute-force check on random weighted graphs: V(v) must be exactly
	// the k nodes with smallest (dist, id).
	rng := rand.New(rand.NewSource(11))
	g := topology.Geometric(rng, 150, 8)
	k := 20
	tab := windows(g, k)
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
		set := &tab[graph.NodeID(src)]
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
	tab := windows(g, 5)
	vFar := &tab[11]
	vHub := &tab[0]
	if !vFar.Contains(10) {
		t.Fatal("far node's vicinity should reach its neighbor")
	}
	if vHub.Contains(11) {
		t.Fatal("hub's small vicinity must not contain the far node")
	}
}

// sameWindow reports whether a and b hold the same members, parents and
// distances, whatever their storage.
func sameWindow(a, b *Window) bool {
	if a.Size() != b.Size() || a.Radius() != b.Radius() {
		return false
	}
	for i := 0; i < a.Size(); i++ {
		if a.ID(i) != b.ID(i) || a.Parent(i) != b.Parent(i) || a.Dist(i) != b.Dist(i) {
			return false
		}
	}
	return true
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
		tab := windows(g, 25)
		for v := 0; v < g.N(); v++ {
			set := &tab[graph.NodeID(v)]
			for i := 0; i < set.Size(); i++ {
				p := set.AppendPath(nil, i)
				if len(p) <= 2 {
					continue // the owner itself, or a direct neighbor: trivially in its own vicinity
				}
				if u := p[1]; !tab[u].Contains(set.ID(i)) {
					t.Fatalf("seed %d: covering violated: %d ∈ V(%d) but not in V(%d) (first hop)",
						seed, set.ID(i), v, u)
				}
			}
		}
	}
}

func TestSelfAlwaysMember(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(5)), 64, 256)
	tab := windows(g, 8)
	for v := 0; v < g.N(); v++ {
		set := &tab[graph.NodeID(v)]
		i := set.Find(graph.NodeID(v))
		if i < 0 {
			t.Fatalf("node %d missing from own vicinity", v)
		}
		if set.Dist(i) != 0 || set.Parent(i) != -1 {
			t.Fatalf("self distance %v, parent %d", set.Dist(i), set.Parent(i))
		}
	}
}

// TestFillMatchesSort is Fill's property test: the window it merges out of
// the level kernel's runs (or sorts, after the heap kernel) is the settle
// order sorted by member ID, entry for entry — every source, on shapes that
// make the ball deep (ring, line: a level holds two nodes, depth ≈ k/2),
// wide (G(n,m), router-like), in between (grid), weighted (geometric: the
// heap path and a float64 column), and cut short by disconnection (fewer
// than k settled, what a repair recomputes after a partitioning failure),
// at k = 1, a mid value and k = n — through one window per graph and k,
// reused from source to source.
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
		b := NewBall(tc.g)
		for _, k := range []int{1, 2, DefaultK(n), n/2 + 1, n} {
			win := MakeWindows(tc.g, 1, k)[0]
			for src := graph.NodeID(0); int(src) < n; src++ {
				sp.RunK(src, k)
				want := make([]Entry, len(sp.Order()))
				for j, w := range sp.Order() {
					want[j] = Entry{Node: w, Parent: sp.Parent(w), Dist: sp.Dist(w)}
				}
				slices.SortFunc(want, func(a, b Entry) int { return cmp.Compare(a.Node, b.Node) })
				b.Fill(&win, src, k)
				got := make([]Entry, win.Size())
				for i := range got {
					got[i] = Entry{Node: win.ID(i), Parent: parentID(&win, i), Dist: win.Dist(i)}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s k=%d src=%d (%d settled, depth %d):\n got  %v\n want %v",
						tc.name, k, src, len(want), sp.Depth(), got, want)
				}
				for i := range got {
					if !win.Contains(got[i].Node) {
						t.Fatalf("%s k=%d src=%d: member %d misses the bitset", tc.name, k, src, got[i].Node)
					}
				}
			}
			if (win.level != nil) != tc.g.Unit() {
				t.Fatalf("%s: level column %v on a graph with Unit() %v", tc.name, win.level != nil, tc.g.Unit())
			}
		}
		if tc.name == "partitioned" {
			if _, comps := tc.g.Components(); comps < 2 {
				t.Fatalf("partitioned: the failed graph is still connected")
			}
		}
	}
}

// TestIndexParent: a window's parent column holds window positions — on
// every window of a table, through one Ball whose position scratch is never
// cleared, each is the index a binary search of the ID column finds for the
// parent's node ID (-1 for the owner); and FromEntries, the one constructor
// that takes parents as IDs, panics on a parent that is not a member —
// a node inside the ID space, one past it, or a negative one — instead of
// storing whatever index the search lands on.
func TestIndexParent(t *testing.T) {
	g := topology.GnmAvgDeg(rand.New(rand.NewSource(3)), 200, 5)
	tab := windows(g, DefaultK(200))
	sp := graph.NewSSSP(g)
	for v := range tab {
		win := &tab[v]
		sp.RunK(graph.NodeID(v), DefaultK(200))
		for i := 0; i < win.Size(); i++ {
			want := -1
			if p := sp.Parent(win.ID(i)); p != graph.None {
				j, ok := slices.BinarySearch(members(win), p)
				if !ok {
					t.Fatalf("V(%d): parent %d of %d is not a member", v, p, win.ID(i))
				}
				want = j
			}
			if got := win.Parent(i); got != want {
				t.Fatalf("V(%d) entry %d: parent index %d, want %d", v, i, got, want)
			}
		}
	}
	n := graph.NodeID(g.N())
	for _, parent := range []graph.NodeID{7, n, -7} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "outside the vicinity window") {
					t.Fatalf("parent %d: recovered %q, want the outside-the-window panic", parent, msg)
				}
			}()
			FromEntries(int(n), []Entry{{Node: 9, Parent: parent, Dist: 1}, {Node: 4, Parent: graph.None}})
		}()
	}
	w := FromEntries(int(n), []Entry{{Node: 9, Parent: 4, Dist: 1}, {Node: 4, Parent: graph.None}})
	if w.ID(0) != 4 || w.Parent(0) != -1 || w.Parent(1) != 0 || w.Radius() != 1 {
		t.Fatalf("FromEntries: members %v, parents %d %d, radius %v", members(w), w.Parent(0), w.Parent(1), w.Radius())
	}
}

// TestPackKeepsWindows: folding windows into fresh shared columns keeps
// every window as it was — members, parents, distances in their form,
// bitset and radius — and what it occupies.
func TestPackKeepsWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	unit := windows(topology.GnmAvgDeg(rng, 120, 6), 15)
	weighted := windows(topology.Geometric(rng, 120, 8), 15)
	var src []*Window
	for v := graph.NodeID(0); v < 120; v++ {
		src = append(src, &unit[v], &weighted[v])
	}
	for i, w := range Pack(src) {
		if !sameWindow(&w, src[i]) || w.Bytes() != src[i].Bytes() || (w.level != nil) != (src[i].level != nil) {
			t.Fatalf("window %d changed in the pack: %v vs %v", i, members(&w), members(src[i]))
		}
		for j := 0; j < w.Size(); j++ {
			if w.Find(w.ID(j)) != j {
				t.Fatalf("window %d: member %d not found at %d", i, w.ID(j), j)
			}
		}
	}
}

// TestWindowBytesPerMember pins what a window's columns cost a member: a
// 4-byte ID and a 2-byte parent position, plus a 2-byte BFS level on a
// unit-weight graph or an 8-byte distance on a weighted one — 8 and 14
// bytes — and on top of them the membership bitset's words.
func TestWindowBytesPerMember(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name      string
		g         *graph.Graph
		perMember int64
	}{
		{"unit", topology.GnmAvgDeg(rng, 300, 6), 8},
		{"weighted", topology.Geometric(rng, 300, 8), 14},
	} {
		k := DefaultK(tc.g.N())
		for v, w := range windows(tc.g, k) {
			if want := int64(w.Size())*tc.perMember + int64(len(w.filt))*8; w.Bytes() != want {
				t.Fatalf("%s V(%d): %d members and %d filter words take %d bytes, want %d", tc.name, v, w.Size(), len(w.filt), w.Bytes(), want)
			}
		}
	}
}

// TestMemberCap: a window's parent positions are uint16s, so every
// constructor refuses more than MaxMembers members with a panic naming the
// limit, and a window of exactly MaxMembers still walks its deepest member
// back to the owner.
func TestMemberCap(t *testing.T) {
	const n = MaxMembers + 1
	g := topology.Line(n)
	chain := func(m int) []Entry {
		es := make([]Entry, m)
		for i := range es {
			es[i] = Entry{Node: graph.NodeID(i), Parent: graph.NodeID(i - 1), Dist: float64(i)}
		}
		es[0].Parent = graph.None
		return es
	}
	for _, tc := range []struct {
		name string
		make func()
	}{
		{"FromEntries", func() { FromEntries(n, chain(n)) }},
		{"MakeWindows", func() { MakeWindows(g, 1, n) }},
		{"FromColumns", func() { FromColumns(n, make([]graph.NodeID, n), make([]uint16, n), nil, make([]float64, n), 0) }},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "65535") {
					t.Fatalf("%s with %d members: recovered %q, want a panic naming the limit", tc.name, n, msg)
				}
			}()
			tc.make()
		}()
	}
	w := FromEntries(n, chain(MaxMembers))
	if p := w.AppendPath(nil, MaxMembers-1); len(p) != MaxMembers || p[0] != 0 || p[len(p)-1] != MaxMembers-1 || w.Parent(0) != -1 {
		t.Fatalf("a full window's deepest path has %d nodes, %d..%d; owner's parent %d", len(p), p[0], p[len(p)-1], w.Parent(0))
	}
}
