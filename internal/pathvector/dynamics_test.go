package pathvector

import (
	"math/rand"
	"reflect"
	"testing"

	"disco/internal/graph"
	"disco/internal/sim"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

// withoutEdge clones g minus one edge (for reference computations).
func withoutEdge(g *graph.Graph, u, v graph.NodeID) *graph.Graph {
	g2 := graph.New(g.N())
	for a := 0; a < g.N(); a++ {
		for _, e := range g.Neighbors(graph.NodeID(a)) {
			if e.To <= graph.NodeID(a) {
				continue
			}
			if (graph.NodeID(a) == u && e.To == v) || (graph.NodeID(a) == v && e.To == u) {
				continue
			}
			g2.AddEdge(graph.NodeID(a), e.To, e.Weight)
		}
	}
	g2.Finalize()
	return g2
}

func TestFailLinkFullModeReconverges(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(1)), 60, 240)
	var eng sim.Engine
	p := New(g, &eng, Config{Mode: ModeFull})
	p.Start()
	if _, q := eng.Run(0); !q {
		t.Fatal("initial convergence failed")
	}
	// Fail an arbitrary live link and re-converge.
	var u, v graph.NodeID = 0, g.Neighbors(0)[0].To
	if err := p.FailLink(u, v); err != nil {
		t.Fatalf("FailLink: %v", err)
	}
	p.PruneStale()
	if _, q := eng.Run(0); !q {
		t.Fatal("re-convergence failed")
	}
	// Distances must now match Dijkstra on the graph without the edge.
	g2 := withoutEdge(g, u, v)
	if !g2.Connected() {
		t.Skip("failed link was a bridge")
	}
	s := graph.NewSSSP(g2)
	for a := 0; a < g.N(); a++ {
		s.Run(graph.NodeID(a))
		for b := 0; b < g.N(); b++ {
			if a == b {
				continue
			}
			want := s.Dist(graph.NodeID(b))
			got := p.BestDist(graph.NodeID(a), graph.NodeID(b))
			if got != want {
				t.Fatalf("after failure dist(%d,%d)=%v want %v", a, b, got, want)
			}
			// No route may cross the dead link.
			if !p.pathAlive(p.BestPath(graph.NodeID(a), graph.NodeID(b))) {
				t.Fatalf("route %d->%d crosses the failed link", a, b)
			}
		}
	}
}

func TestFailBridgePartitions(t *testing.T) {
	// Two cliques joined by one bridge; failing it must withdraw every
	// cross-side route.
	g := graph.New(8)
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			g.AddEdge(graph.NodeID(a), graph.NodeID(b), 1)
			g.AddEdge(graph.NodeID(a+4), graph.NodeID(b+4), 1)
		}
	}
	g.AddEdge(0, 4, 1) // the bridge
	g.Finalize()

	var eng sim.Engine
	p := New(g, &eng, Config{Mode: ModeFull})
	p.Start()
	eng.Run(0)
	if p.BestDist(1, 5) >= graph.Inf {
		t.Fatal("cross-side route missing before failure")
	}
	if err := p.FailLink(0, 4); err != nil {
		t.Fatalf("FailLink: %v", err)
	}
	p.PruneStale()
	if _, q := eng.Run(5_000_000); !q {
		t.Fatal("did not quiesce after bridge failure (count-to-infinity?)")
	}
	for a := 0; a < 4; a++ {
		for b := 4; b < 8; b++ {
			if p.BestDist(graph.NodeID(a), graph.NodeID(b)) < graph.Inf {
				t.Fatalf("route %d->%d survived a partition", a, b)
			}
		}
	}
	// Same-side routes intact.
	if p.BestDist(1, 2) != 1 || p.BestDist(5, 6) != 1 {
		t.Fatal("intra-side routes damaged")
	}
}

func TestFailLinkVicinityWithRefresh(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(3)), 120, 480)
	env := static.NewEnv(g, 3)
	K := 16
	var eng sim.Engine
	p := New(g, &eng, Config{Mode: ModeVicinity, K: K, IsLandmark: env.IsLM})
	p.Start()
	if _, q := eng.Run(0); !q {
		t.Fatal("initial convergence failed")
	}
	var u, v graph.NodeID = 7, g.Neighbors(7)[0].To
	g2 := withoutEdge(g, u, v)
	if !g2.Connected() {
		t.Skip("failed link was a bridge")
	}
	if err := p.FailLink(u, v); err != nil {
		t.Fatalf("FailLink: %v", err)
	}
	p.PruneStale()
	eng.Run(0)
	rounds := p.RefreshUntilStable(10)
	t.Logf("refresh reached a fixpoint in %d rounds", rounds)
	// Converged vicinities must equal the static computation on g2.
	want := vicinities(g2, K)
	for a := 0; a < g.N(); a++ {
		got := p.VicinityMembers(graph.NodeID(a))
		ws := &want[graph.NodeID(a)]
		if len(got) != ws.Size() {
			t.Fatalf("node %d vicinity size %d want %d after failure+refresh", a, len(got), ws.Size())
		}
		for _, m := range got {
			e := ws.Find(m)
			if e < 0 {
				t.Fatalf("node %d: member %d not in post-failure vicinity", a, m)
			}
			if m != graph.NodeID(a) && p.BestDist(graph.NodeID(a), m) != ws.Dist(e) {
				t.Fatalf("node %d member %d dist mismatch", a, m)
			}
		}
	}
}

func TestFailLinkMessagesCounted(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(5)), 80, 320)
	var eng sim.Engine
	p := New(g, &eng, Config{Mode: ModeFull})
	p.Start()
	eng.Run(0)
	before := p.Messages
	if err := p.FailLink(2, g.Neighbors(2)[0].To); err != nil {
		t.Fatalf("FailLink: %v", err)
	}
	p.PruneStale()
	eng.Run(0)
	if p.Messages <= before {
		t.Fatal("re-convergence after failure should cost messages")
	}
}

func TestLinkAliveAndFailLinkErrors(t *testing.T) {
	g := topology.Line(4)
	var eng sim.Engine
	p := New(g, &eng, Config{Mode: ModeFull})
	if !p.LinkAlive(0, 1) {
		t.Fatal("link should start alive")
	}
	if err := p.FailLink(0, 1); err != nil {
		t.Fatalf("FailLink on a live link: %v", err)
	}
	if p.LinkAlive(0, 1) || p.LinkAlive(1, 0) {
		t.Fatal("failed link should be dead both ways")
	}
	if err := p.FailLink(0, 3); err == nil {
		t.Fatal("expected error failing a non-edge")
	}
	if err := p.FailLink(0, 1); err == nil {
		t.Fatal("expected error failing an already-failed link")
	}
	if err := p.FailLink(2, 2); err == nil {
		t.Fatal("expected error failing a self-loop")
	}
}

func TestCloneNonQuiescedErrors(t *testing.T) {
	g := topology.Line(4)
	var eng sim.Engine
	p := New(g, &eng, Config{Mode: ModeFull})
	p.Start() // pending sends, never run to quiescence
	var eng2 sim.Engine
	if _, err := p.Clone(&eng2); err == nil {
		t.Fatal("expected error cloning a non-quiesced instance")
	}
	if _, q := eng.Run(0); !q {
		t.Fatal("convergence failed")
	}
	c, err := p.Clone(&eng2)
	if err != nil {
		t.Fatalf("Clone of a quiesced instance: %v", err)
	}
	if c.BestDist(0, 3) != p.BestDist(0, 3) {
		t.Fatal("clone diverges from original")
	}
}

// TestCloneIsolation: a clone that fails a link, re-converges and
// refreshes leaves the original's tables and message count as they were.
func TestCloneIsolation(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(11)), 128, 512)
	env := static.NewEnv(g, 11)
	p := runProtocol(t, g, Config{Mode: ModeVicinity, K: vicinity.DefaultK(128), IsLandmark: env.IsLM})
	before := tablesOf(p)
	var eng sim.Engine
	c, err := p.Clone(&eng)
	if err != nil {
		t.Fatal(err)
	}
	bridges := g.Bridges()
	e := g.Neighbors(0)[0]
	for _, cand := range g.Neighbors(0) {
		if !bridges[cand.EID] {
			e = cand
			break
		}
	}
	if err := c.FailLink(0, e.To); err != nil {
		t.Fatal(err)
	}
	c.PruneStale()
	if _, q := eng.Run(0); !q {
		t.Fatal("clone did not re-converge")
	}
	c.RefreshUntilStable(16)
	if c.Messages == 0 || reflect.DeepEqual(tablesOf(c).paths, before.paths) {
		t.Fatal("the failure changed nothing in the clone; the test proves nothing")
	}
	if after := tablesOf(p); after.messages != before.messages || !reflect.DeepEqual(after, before) {
		t.Error("the original's tables changed under its clone")
	}
	if !p.LinkAlive(0, e.To) {
		t.Error("the original sees the clone's failed link")
	}
}
