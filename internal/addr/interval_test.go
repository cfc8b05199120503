package addr

import (
	"math/rand"
	"testing"

	"disco/internal/graph"
	"disco/internal/topology"
)

// buildForest computes a landmark forest over g (multi-source shortest
// paths from the given landmark set).
func buildForest(g *graph.Graph, lms []graph.NodeID) (parent, lmOf []graph.NodeID) {
	s := graph.NewSSSP(g)
	s.RunMulti(lms)
	n := g.N()
	parent = make([]graph.NodeID, n)
	lmOf = make([]graph.NodeID, n)
	for v := 0; v < n; v++ {
		parent[v] = s.Parent(graph.NodeID(v))
		lmOf[v] = s.Source(graph.NodeID(v))
	}
	return parent, lmOf
}

func TestIntervalRoutesEveryNode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := topology.Gnm(rng, 400, 1600)
	lms := []graph.NodeID{3, 77, 200, 311}
	parent, lmOf := buildForest(g, lms)
	it := BuildIntervals(parent)
	for v := 0; v < g.N(); v++ {
		path, err := it.Route(lmOf[v], it.LabelOf(graph.NodeID(v)))
		if err != nil {
			t.Fatalf("route to %d: %v", v, err)
		}
		if path[0] != lmOf[v] || path[len(path)-1] != graph.NodeID(v) {
			t.Fatalf("path endpoints wrong for %d: %v", v, path)
		}
		// The interval route must follow the same tree as the forest: its
		// length equals the tree path length.
		want := 0
		for u := graph.NodeID(v); u != graph.None; u = parent[u] {
			want++
		}
		if len(path) != want {
			t.Fatalf("node %d: interval path %d hops want %d", v, len(path), want)
		}
	}
}

func TestIntervalLabelsUniquePerTree(t *testing.T) {
	g := topology.Ring(64)
	parent, lmOf := buildForest(g, []graph.NodeID{0, 32})
	it := BuildIntervals(parent)
	seen := map[[2]uint64]bool{}
	for v := 0; v < g.N(); v++ {
		key := [2]uint64{uint64(lmOf[v]), it.LabelOf(graph.NodeID(v))}
		if seen[key] {
			t.Fatalf("duplicate label %v", key)
		}
		seen[key] = true
	}
}

func TestIntervalBitsAreLogOfTreeSize(t *testing.T) {
	// One landmark on a 1024-node graph: tree size 1024 -> 10 bits.
	g := topology.Gnm(rand.New(rand.NewSource(2)), 1024, 4096)
	parent, _ := buildForest(g, []graph.NodeID{5})
	it := BuildIntervals(parent)
	if it.BitsPerLabel() != 10 {
		t.Fatalf("bits %d want 10", it.BitsPerLabel())
	}
	// Many landmarks -> smaller trees -> fewer bits.
	lms := make([]graph.NodeID, 0, 64)
	for i := 0; i < 64; i++ {
		lms = append(lms, graph.NodeID(i*16))
	}
	parent, _ = buildForest(g, lms)
	it2 := BuildIntervals(parent)
	if it2.BitsPerLabel() >= it.BitsPerLabel() {
		t.Fatalf("more landmarks should shrink labels: %d vs %d", it2.BitsPerLabel(), it.BitsPerLabel())
	}
}

func TestIntervalDeepTree(t *testing.T) {
	// A ring with one landmark yields a path-shaped tree of depth n/2:
	// exercises the iterative DFS.
	g := topology.Ring(2000)
	parent, _ := buildForest(g, []graph.NodeID{0})
	it := BuildIntervals(parent)
	for _, v := range []graph.NodeID{1, 999, 1000, 1999} {
		path, err := it.Route(0, it.LabelOf(v))
		if err != nil {
			t.Fatalf("route to %d: %v", v, err)
		}
		if path[len(path)-1] != v {
			t.Fatalf("wrong destination")
		}
	}
}

func TestIntervalChildState(t *testing.T) {
	g := topology.Star(10)
	parent, _ := buildForest(g, []graph.NodeID{0})
	it := BuildIntervals(parent)
	ci := it.ChildIntervals(0)
	if len(ci) != 9 {
		t.Fatalf("root should have 9 child intervals, got %d", len(ci))
	}
	// Intervals partition [1, 10) with each leaf owning one slot.
	used := map[uint64]bool{}
	for _, c := range ci {
		if c.Hi != c.Lo+1 {
			t.Fatalf("leaf interval should be a single slot: %+v", c)
		}
		if used[c.Lo] {
			t.Fatalf("overlapping intervals")
		}
		used[c.Lo] = true
	}
	// Leaves have no children.
	if len(it.ChildIntervals(3)) != 0 {
		t.Fatal("leaf should have no child intervals")
	}
}

func TestIntervalRouteErrors(t *testing.T) {
	g := topology.Line(6)
	parent, _ := buildForest(g, []graph.NodeID{0})
	it := BuildIntervals(parent)
	if _, err := it.Route(3, 0); err == nil {
		t.Fatal("routing from a non-root must error")
	}
	if _, err := it.Route(0, 99); err == nil {
		t.Fatal("out-of-tree label must error")
	}
}

func TestIntervalVsExplicitSizes(t *testing.T) {
	// The paper's stated reason for explicit routes: in practice they are
	// compact. Compare the fixed label width to the mean explicit-route
	// width on a router-like map with sqrt(n log n) landmarks.
	rng := rand.New(rand.NewSource(4))
	g := topology.RouterLike(rng, 4096)
	perm := rng.Perm(g.N())
	lms := make([]graph.NodeID, 220)
	for i := range lms {
		lms[i] = graph.NodeID(perm[i])
	}
	parent, _ := buildForest(g, lms)
	it := BuildIntervals(parent)

	s := graph.NewSSSP(g)
	s.RunMulti(lms)
	totalBits := 0
	for v := 0; v < g.N(); v++ {
		totalBits += Make(g, s.PathTo(graph.NodeID(v))).Bits()
	}
	meanExplicit := float64(totalBits) / float64(g.N())
	t.Logf("explicit mean %.1f bits vs fixed label %d bits (tree max %d nodes)",
		meanExplicit, it.BitsPerLabel(), 1<<uint(it.BitsPerLabel()))
	if it.BitsPerLabel() <= 0 || it.BitsPerLabel() > 16 {
		t.Fatalf("label width %d implausible", it.BitsPerLabel())
	}
}
