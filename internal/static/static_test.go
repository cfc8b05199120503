package static

import (
	"math/rand"
	"testing"

	"disco/internal/estimate"
	"disco/internal/graph"
	"disco/internal/topology"
)

func TestEnvLandmarkForest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := topology.Gnm(rng, 300, 1200)
	e := NewEnv(g, 7)
	if len(e.Landmarks) == 0 {
		t.Fatal("no landmarks")
	}
	// Brute-force nearest landmark per node.
	s := graph.NewSSSP(g)
	for v := 0; v < g.N(); v++ {
		s.Run(graph.NodeID(v))
		bestD := -1.0
		var best graph.NodeID = graph.None
		for _, lm := range e.Landmarks {
			d := s.Dist(lm)
			if bestD < 0 || d < bestD || (d == bestD && lm < best) {
				bestD, best = d, lm
			}
		}
		if e.LMDist[v] != bestD {
			t.Fatalf("node %d LMDist %v want %v", v, e.LMDist[v], bestD)
		}
		if e.LMOf[v] != best {
			t.Fatalf("node %d LMOf %d want %d", v, e.LMOf[v], best)
		}
	}
}

func TestEnvAddresses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := topology.Geometric(rng, 200, 8)
	e := NewEnv(g, 8)
	for v := 0; v < g.N(); v++ {
		a := e.AddrOf(graph.NodeID(v))
		if a.Dest != graph.NodeID(v) {
			t.Fatalf("address dest mismatch at %d", v)
		}
		if a.Landmark != e.LMOf[v] {
			t.Fatalf("address landmark mismatch at %d", v)
		}
		// Path length equals landmark distance.
		if got := g.PathLength(a.Path); got != e.LMDist[v] {
			t.Fatalf("address path length %v want %v", got, e.LMDist[v])
		}
		// The ports re-walk the path from the landmark.
		for i, p := range a.Ports {
			if g.Neighbors(a.Path[i])[p].To != a.Path[i+1] {
				t.Fatalf("port %d at hop %d of %d's address leaves the path", p, i, v)
			}
		}
	}
}

func TestEnvLandmarksAreAddressRoots(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := topology.Gnm(rng, 150, 600)
	e := NewEnv(g, 9)
	for _, lm := range e.Landmarks {
		if !e.IsLM[lm] {
			t.Fatal("IsLM inconsistent")
		}
		if e.LMOf[lm] != lm || e.LMDist[lm] != 0 {
			t.Fatalf("landmark %d should be its own landmark", lm)
		}
		if e.AddrOf(lm).Hops() != 0 {
			t.Fatalf("landmark %d address should be empty route", lm)
		}
	}
}

func TestWithLandmarks(t *testing.T) {
	g := topology.Ring(20)
	e := NewEnv(g, 1, WithLandmarks([]graph.NodeID{0, 10}))
	if len(e.Landmarks) != 2 {
		t.Fatal("override ignored")
	}
	if e.LMOf[5] != 0 && e.LMOf[5] != 10 {
		t.Fatal("nearest landmark must be one of the overrides")
	}
	if e.LMDist[5] != 5 {
		t.Fatalf("LMDist[5]=%v want 5", e.LMDist[5])
	}
}

func TestWithNEst(t *testing.T) {
	g := topology.Ring(50)
	rng := rand.New(rand.NewSource(4))
	est := estimate.InjectError(rng, 50, 0.4)
	e := NewEnv(g, 2, WithNEst(est))
	if len(e.NEst) != 50 || e.NEst[0] == e.NEst[1] && e.NEst[1] == e.NEst[2] && e.NEst[2] == e.NEst[3] {
		t.Error("per-node estimates not applied")
	}
}

func TestAddrSizeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := topology.RouterLike(rng, 2000)
	e := NewEnv(g, 11)
	mean, p95, max := e.AddrSizeStats()
	if mean <= 0 || p95 < mean || max < p95 {
		t.Fatalf("stats not ordered: mean=%v p95=%v max=%v", mean, p95, max)
	}
	if mean > 8 {
		t.Errorf("mean address size %v bytes implausible for router-like map", mean)
	}
	// On a line with landmark 0, node v's route is v hops long, so the
	// sizes are distinct and p95 must be the ceil(0.95·n)-th smallest
	// (nearest rank), not the int(0.95·n+0.5)-th.
	for _, tc := range []struct {
		n   int
		p95 float64
	}{{11, 2}, {13, 2.25}, {31, 4.625}} {
		e := NewEnv(topology.Line(tc.n), 1, WithLandmarks([]graph.NodeID{0}))
		if _, p95, _ := e.AddrSizeStats(); p95 != tc.p95 {
			t.Errorf("Line(%d): p95 %v B, want nearest-rank %v B", tc.n, p95, tc.p95)
		}
	}
}

func TestEnvDeterministic(t *testing.T) {
	g1 := topology.Gnm(rand.New(rand.NewSource(6)), 100, 400)
	g2 := topology.Gnm(rand.New(rand.NewSource(6)), 100, 400)
	e1 := NewEnv(g1, 3)
	e2 := NewEnv(g2, 3)
	if len(e1.Landmarks) != len(e2.Landmarks) {
		t.Fatal("same seed must give same landmarks")
	}
	for i := range e1.Landmarks {
		if e1.Landmarks[i] != e2.Landmarks[i] {
			t.Fatal("landmark mismatch")
		}
	}
	for v := 0; v < 100; v++ {
		if e1.Names[v] != e2.Names[v] || e1.LMOf[v] != e2.LMOf[v] {
			t.Fatal("env mismatch")
		}
	}
}
