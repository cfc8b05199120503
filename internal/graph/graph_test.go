package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	// 0 --1-- 1 --1-- 3
	//  \--3-- 2 --1--/
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 3)
	g.AddEdge(2, 3, 1)
	g.Finalize()
	return g
}

func TestAddEdgeAndDegrees(t *testing.T) {
	g := buildDiamond(t)
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("got N=%d M=%d, want 4,4", g.N(), g.M())
	}
	wantDeg := []int{2, 2, 2, 2}
	for v, w := range wantDeg {
		if g.Degree(NodeID(v)) != w {
			t.Errorf("degree(%d)=%d want %d", v, g.Degree(NodeID(v)), w)
		}
	}
}

// TestSelfLoopPanics: a graph is simple. A self-loop panics at AddEdge,
// and a second link between a pair, in either spelling, at Finalize.
func TestSelfLoopPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(g *Graph)
	}{
		{"self-loop", func(g *Graph) { g.AddEdge(1, 1, 1) }},
		{"doubled", func(g *Graph) { g.AddEdge(0, 1, 1); g.AddEdge(0, 1, 1); g.Finalize() }},
		{"doubled 1-0", func(g *Graph) { g.AddEdge(0, 1, 1); g.AddEdge(1, 2, 1); g.AddEdge(1, 0, 2); g.Finalize() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected a panic", tc.name)
				}
			}()
			tc.build(New(3))
		}()
	}
}

// TestNegativeWeightPanics: a link weighs more than 0 and is finite.
func TestNegativeWeightPanics(t *testing.T) {
	for _, w := range []float64{-0.5, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AddEdge with weight %v did not panic", w)
				}
			}()
			g := New(2)
			g.AddEdge(0, 1, w)
		}()
	}
}

func TestPortsRoundTrip(t *testing.T) {
	g := buildDiamond(t)
	for u := NodeID(0); int(u) < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			p := g.PortOf(u, e.To)
			if p < 0 {
				t.Fatalf("PortOf(%d,%d) = -1", u, e.To)
			}
			if got := g.Neighbors(u)[p].To; got != e.To {
				t.Fatalf("port %d of %d leads to %d, want %d", p, u, got, e.To)
			}
		}
	}
	if g.PortOf(0, 3) != -1 {
		t.Error("PortOf for non-edge should be -1")
	}
	// Against a linear scan of the row, for every (u, to) of a random
	// graph, non-neighbours and IDs just outside [0, n) included.
	g = genGnm(rand.New(rand.NewSource(4)), 64, 400)
	for u := NodeID(0); int(u) < g.N(); u++ {
		for to := NodeID(-1); int(to) <= g.N(); to++ {
			want := slices.IndexFunc(g.Neighbors(u), func(e Edge) bool { return e.To == to })
			if got := g.PortOf(u, to); got != want {
				t.Fatalf("PortOf(%d,%d) = %d, want %d", u, to, got, want)
			}
		}
	}
}

func TestEdgeWeightAndID(t *testing.T) {
	g := buildDiamond(t)
	if w := g.EdgeWeight(0, 2); w != 3 {
		t.Errorf("EdgeWeight(0,2)=%v want 3", w)
	}
	if w := g.EdgeWeight(1, 2); w != -1 {
		t.Errorf("EdgeWeight(1,2)=%v want -1", w)
	}
	id01 := g.EdgeID(0, 1)
	id10 := g.EdgeID(1, 0)
	if id01 != id10 || id01 < 0 {
		t.Errorf("edge IDs should match across both directions: %d vs %d", id01, id10)
	}
}

func TestPathLength(t *testing.T) {
	g := buildDiamond(t)
	if l := g.PathLength([]NodeID{0, 1, 3}); l != 2 {
		t.Errorf("PathLength=%v want 2", l)
	}
	if l := g.PathLength([]NodeID{2}); l != 0 {
		t.Errorf("single-node path length=%v want 0", l)
	}
}

func TestComponents(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	g.Finalize()
	_, c := g.Components()
	if c != 3 {
		t.Fatalf("components=%d want 3", c)
	}
	if g.Connected() {
		t.Error("graph should not be connected")
	}
	g2 := buildDiamond(t)
	if !g2.Connected() {
		t.Error("diamond should be connected")
	}
}

func TestDijkstraDiamond(t *testing.T) {
	g := buildDiamond(t)
	s := NewSSSP(g)
	s.Run(0)
	want := map[NodeID]float64{0: 0, 1: 1, 2: 3, 3: 2}
	for v, d := range want {
		if got := s.Dist(v); got != d {
			t.Errorf("dist(0,%d)=%v want %v", v, got, d)
		}
	}
	// Shortest path to 2 goes direct (3) vs via 3 (also 3): tie broken
	// deterministically; path must have length equal to dist.
	p := s.PathTo(2)
	if g.PathLength(p) != 3 {
		t.Errorf("path length %v want 3 (path %v)", g.PathLength(p), p)
	}
	if p[0] != 0 || p[len(p)-1] != 2 {
		t.Errorf("path endpoints wrong: %v", p)
	}
}

func TestDijkstraVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		g := New(n)
		seen := map[[2]NodeID]bool{}
		for e := 0; e < n*2; e++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			if seen[[2]NodeID{a, b}] {
				continue
			}
			seen[[2]NodeID{a, b}] = true
			g.AddEdge(u, v, float64(1+rng.Intn(9)))
		}
		g.Finalize()
		// Floyd-Warshall reference.
		const inf = 1e18
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
			for j := range d[i] {
				if i != j {
					d[i][j] = inf
				}
			}
		}
		for u := 0; u < n; u++ {
			for _, e := range g.Neighbors(NodeID(u)) {
				if e.Weight < d[u][e.To] {
					d[u][e.To] = e.Weight
				}
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if d[i][k]+d[k][j] < d[i][j] {
						d[i][j] = d[i][k] + d[k][j]
					}
				}
			}
		}
		s := NewSSSP(g)
		for src := 0; src < n; src++ {
			s.Run(NodeID(src))
			for v := 0; v < n; v++ {
				want := d[src][v]
				got := s.Dist(NodeID(v))
				if want >= inf {
					if !wantInf(got) {
						t.Fatalf("trial %d: dist(%d,%d)=%v want inf", trial, src, v, got)
					}
					continue
				}
				if got != want {
					t.Fatalf("trial %d: dist(%d,%d)=%v want %v", trial, src, v, got, want)
				}
				// Path must exist, start/end right, and match distance.
				p := s.PathTo(NodeID(v))
				if p[0] != NodeID(src) || p[len(p)-1] != NodeID(v) {
					t.Fatalf("bad path endpoints %v", p)
				}
				if g.PathLength(p) != want {
					t.Fatalf("path length %v want %v", g.PathLength(p), want)
				}
			}
		}
	}
}

func wantInf(v float64) bool { return v > 1e17 }

func TestRunKSettlesKClosest(t *testing.T) {
	// Line graph: RunK(0, 3) must settle exactly 0,1,2.
	g := New(6)
	for i := 0; i < 5; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), 1)
	}
	g.Finalize()
	s := NewSSSP(g)
	s.RunK(0, 3)
	order := s.Order()
	if len(order) != 3 {
		t.Fatalf("settled %d nodes want 3", len(order))
	}
	for i, v := range []NodeID{0, 1, 2} {
		if order[i] != v {
			t.Errorf("order[%d]=%d want %d", i, order[i], v)
		}
	}
	if s.Settled(3) {
		t.Error("node 3 should not be settled")
	}
}

func TestRunKDeterministicTieBreak(t *testing.T) {
	// Star: all leaves at distance 1; k=3 must settle center + two
	// lowest-ID leaves.
	g := New(5)
	for i := 1; i < 5; i++ {
		g.AddEdge(0, NodeID(i), 1)
	}
	g.Finalize()
	s := NewSSSP(g)
	s.RunK(0, 3)
	got := append([]NodeID(nil), s.Order()...)
	want := []NodeID{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v want %v", got, want)
		}
	}
}

func TestRunRadiusStrict(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.Finalize()
	s := NewSSSP(g)
	s.RunRadius(0, 2)
	// Settles nodes with dist < 2: nodes 0,1.
	if !s.Settled(0) || !s.Settled(1) || s.Settled(2) || s.Settled(3) {
		t.Errorf("radius settle set wrong: %v %v %v %v",
			s.Settled(0), s.Settled(1), s.Settled(2), s.Settled(3))
	}
	s.RunRadius(0, 0)
	if s.Settled(0) {
		t.Error("radius 0 must settle nothing (strict)")
	}
}

func TestRunMultiNearestSource(t *testing.T) {
	// Line 0-1-2-3-4, sources {0,4}: nearest of 1 is 0, of 3 is 4; node 2
	// ties -> lowest source 0.
	g := New(5)
	for i := 0; i < 4; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), 1)
	}
	g.Finalize()
	s := NewSSSP(g)
	s.RunMulti([]NodeID{0, 4})
	cases := map[NodeID]NodeID{0: 0, 1: 0, 2: 0, 3: 4, 4: 4}
	for v, src := range cases {
		if got := s.Source(v); got != src {
			t.Errorf("Source(%d)=%d want %d", v, got, src)
		}
	}
	if s.Dist(2) != 2 {
		t.Errorf("Dist(2)=%v want 2", s.Dist(2))
	}
	// Path from node 3 must lead back to source 4.
	p := s.PathTo(3)
	if p[0] != 4 || p[len(p)-1] != 3 {
		t.Errorf("multi-source path %v should start at source 4", p)
	}
}

// TestFirstHopTo pins the first hop toward a node as callers read it: the
// second node of PathTo (the source itself has none).
func TestFirstHopTo(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.Finalize()
	s := NewSSSP(g)
	s.Run(0)
	if p := s.PathTo(3); len(p) != 4 || p[1] != 1 {
		t.Errorf("PathTo(3)=%v want first hop 1", p)
	}
	if p := s.PathTo(1); len(p) != 2 || p[1] != 1 {
		t.Errorf("PathTo(1)=%v want first hop 1", p)
	}
	if p := s.PathTo(0); len(p) != 1 {
		t.Errorf("PathTo(source)=%v want the source alone", p)
	}
}

func TestEpochReuse(t *testing.T) {
	g := buildDiamond(t)
	s := NewSSSP(g)
	for i := 0; i < 100; i++ {
		src := NodeID(i % 4)
		s.Run(src)
		if s.Dist(src) != 0 {
			t.Fatalf("iteration %d: Dist(src)=%v", i, s.Dist(src))
		}
	}
	// After a truncated run, unsettled nodes must read as Inf.
	s.RunK(0, 1)
	if !s.Settled(0) || s.Settled(1) {
		t.Fatal("RunK(0,1) should settle only the source")
	}
	if d := s.Dist(3); !wantInf(d) {
		t.Errorf("unsettled Dist=%v want Inf", d)
	}
}

func TestPortOfBeforeFinalizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.PortOf(0, 1)
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := New(3)
	g.AddEdge(0, 5, 1)
}

func TestSingleNodeGraph(t *testing.T) {
	g := New(1)
	g.Finalize()
	if !g.Connected() {
		t.Fatal("single node is connected")
	}
	s := NewSSSP(g)
	s.Run(0)
	if s.Dist(0) != 0 {
		t.Fatal("self distance")
	}
	if p := s.PathTo(0); len(p) != 1 || p[0] != 0 {
		t.Fatalf("self path %v", p)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	if !g.Connected() {
		t.Fatal("empty graph is trivially connected")
	}
	if g.AvgDegree() != 0 || g.MaxDegree() != 0 {
		t.Fatal("empty graph stats")
	}
}

func TestParallelSSSPIndependence(t *testing.T) {
	// Two scratches over the same graph must not interfere.
	g := buildDiamond(t)
	a := NewSSSP(g)
	b := NewSSSP(g)
	a.Run(0)
	b.Run(3)
	if a.Dist(3) != 2 || b.Dist(0) != 2 {
		t.Fatal("scratches interfered")
	}
	if a.Dist(2) != 3 || b.Dist(2) != 1 {
		t.Fatalf("scratches interfered: %v %v", a.Dist(2), b.Dist(2))
	}
}

func TestRunKMoreThanN(t *testing.T) {
	g := buildDiamond(t)
	s := NewSSSP(g)
	s.RunK(0, 100)
	if len(s.Order()) != 4 {
		t.Fatalf("settled %d want all 4", len(s.Order()))
	}
}

func TestAvgMaxDegree(t *testing.T) {
	g := buildDiamond(t)
	if ad := g.AvgDegree(); ad != 2 {
		t.Errorf("AvgDegree=%v want 2", ad)
	}
	if md := g.MaxDegree(); md != 2 {
		t.Errorf("MaxDegree=%v want 2", md)
	}
}

// bridgesByRemoval is the O(m·(n+m)) reference: an edge is a bridge iff
// removing it raises the component count.
func bridgesByRemoval(g *Graph) []bool {
	_, base := g.Components()
	out := make([]bool, g.M())
	for id := range out {
		dead := make([]bool, g.M())
		dead[id] = true
		if _, c := g.WithoutEdges(dead).Components(); c > base {
			out[id] = true
		}
	}
	return out
}

func TestBridgesKnownTopology(t *testing.T) {
	// Two triangles joined by a bridge, plus a pendant edge (also a bridge).
	g := New(7)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	b1 := g.AddEdge(2, 3, 1) // bridge
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	g.AddEdge(5, 3, 1)
	b2 := g.AddEdge(5, 6, 1) // pendant bridge
	g.Finalize()
	got := g.Bridges()
	for id := int32(0); int(id) < g.M(); id++ {
		want := id == b1 || id == b2
		if got[id] != want {
			t.Errorf("edge %d: bridge=%v want %v", id, got[id], want)
		}
	}
}

func TestBridgesMatchesRemovalReference(t *testing.T) {
	// Random sparse graphs (disconnected allowed) against the
	// removal-based reference definition.
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 40
		g := New(n)
		seen := map[EdgeKey]bool{}
		for i := 0; i < 55; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			k := (EdgeKey{U: u, V: v}).Norm()
			if u == v || seen[k] {
				continue
			}
			seen[k] = true
			g.AddEdge(u, v, 1)
		}
		g.Finalize()
		got := g.Bridges()
		want := bridgesByRemoval(g)
		for id := range want {
			if got[id] != want[id] {
				t.Fatalf("seed %d edge %d: bridge=%v want %v", seed, id, got[id], want[id])
			}
		}
	}
}

func TestWithoutEdges(t *testing.T) {
	g := buildDiamond(t)
	dead := make([]bool, g.M())
	dead[g.EdgeID(1, 3)] = true
	g2 := g.WithoutEdges(dead)
	if g2.N() != g.N() || g2.M() != g.M()-1 {
		t.Fatalf("got N=%d M=%d, want %d,%d", g2.N(), g2.M(), g.N(), g.M()-1)
	}
	if g2.EdgeWeight(1, 3) >= 0 {
		t.Fatal("removed edge still present")
	}
	// Surviving edges keep endpoints and weights.
	for _, e := range [][3]float64{{0, 1, 1}, {0, 2, 3}, {2, 3, 1}} {
		if w := g2.EdgeWeight(NodeID(e[0]), NodeID(e[1])); w != e[2] {
			t.Errorf("edge (%v,%v) weight %v want %v", e[0], e[1], w, e[2])
		}
	}
	if !g2.Finalized() {
		t.Fatal("WithoutEdges result not finalized")
	}
	// Edge IDs renumber densely: every ID 0..M-1 is present.
	for id := int32(0); int(id) < g2.M(); id++ {
		found := false
		for u := 0; u < g2.N() && !found; u++ {
			for _, e := range g2.Neighbors(NodeID(u)) {
				if e.EID == id {
					found = true
					break
				}
			}
		}
		if !found {
			t.Fatalf("edge ID %d missing after renumbering", id)
		}
	}
}
