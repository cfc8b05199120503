package pathvector

import (
	"math/rand"
	"slices"
	"testing"

	"disco/internal/graph"
	"disco/internal/sim"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

// TestDebugVicinityFailure reproduces the failing scenario with full
// diagnostics (kept as a regression probe).
func TestDebugVicinityFailure(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(3)), 120, 480)
	env := static.NewEnv(g, 3)
	K := 16
	var eng sim.Engine
	p := New(g, &eng, Config{Mode: ModeVicinity, K: K, IsLandmark: env.IsLM})
	p.Start()
	eng.Run(0)
	var u, v graph.NodeID = 7, g.Neighbors(7)[0].To
	g2 := withoutEdge(g, u, v)
	if !g2.Connected() {
		t.Skip("bridge")
	}
	if err := p.FailLink(u, v); err != nil {
		t.Fatalf("FailLink: %v", err)
	}
	p.PruneStale()
	eng.Run(0)
	p.RefreshUntilStable(20)

	want := vicinity.Build(g2, K, nil)
	s := graph.NewSSSP(g2)
	bad := 0
	for a := 0; a < g.N() && bad < 3; a++ {
		got := p.VicinityMembers(graph.NodeID(a))
		ws := want.Of(graph.NodeID(a))
		same := len(got) == ws.Size()
		if same {
			for _, m := range got {
				if !ws.Contains(m) {
					same = false
				}
			}
		}
		if same {
			continue
		}
		bad++
		s.Run(graph.NodeID(a))
		var wantIDs []graph.NodeID
		for _, e := range ws.Entries {
			wantIDs = append(wantIDs, e.Node)
		}
		slices.Sort(wantIDs)
		t.Logf("node %d PV vicinity:", a)
		for _, m := range got {
			t.Logf("  member %d pvDist=%v trueDist=%v inStatic=%v",
				m, p.BestDist(graph.NodeID(a), m), s.Dist(m), ws.Contains(m))
		}
		for _, m := range wantIDs {
			found := false
			for _, gm := range got {
				if gm == m {
					found = true
				}
			}
			if !found {
				t.Logf("  MISSING %d trueDist=%v pvBest=%v", m, s.Dist(m), p.BestDist(graph.NodeID(a), m))
			}
		}
	}
	if bad == 0 {
		t.Log("no mismatches")
	}
}
