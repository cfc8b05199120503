package snapshot

import (
	"bytes"
	"math/rand"
	"testing"

	"disco/internal/graph"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

// drawNonBridgeLinks picks `count` distinct non-bridge links of g,
// deterministically from seed, so removing them keeps g connected and a
// from-scratch rebuild of the failed topology stays possible.
func drawNonBridgeLinks(t *testing.T, g *graph.Graph, seed int64, count int) []graph.EdgeKey {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bridges := g.Bridges()
	seen := map[graph.EdgeKey]bool{}
	var out []graph.EdgeKey
	for len(out) < count {
		u := graph.NodeID(rng.Intn(g.N()))
		es := g.Neighbors(u)
		if len(es) == 0 {
			continue
		}
		e := es[rng.Intn(len(es))]
		k := (graph.EdgeKey{U: u, V: e.To}).Norm()
		if bridges[e.EID] || seen[k] {
			continue
		}
		// The links must be jointly non-disconnecting, not just
		// individually non-bridge: verify the running removal set.
		dead := make([]bool, g.M())
		for s := range seen {
			dead[g.EdgeID(s.U, s.V)] = true
		}
		dead[e.EID] = true
		if !g.WithoutEdges(dead).Connected() {
			continue
		}
		seen[k] = true
		out = append(out, k)
	}
	return out
}

// TestSnapshotRepairEquivalence is the tentpole's contract: a snapshot
// repaired via ApplyFailures must hold route state byte-identical (in
// CanonicalBytes form) to a from-scratch rebuild of the failed topology,
// in both storage regimes, for single links, multi-link failures, and a
// chained repair-of-a-repair.
func TestSnapshotRepairEquivalence(t *testing.T) {
	for _, compact := range []bool{false, true} {
		name := "exact"
		if compact {
			name = "compact"
		}
		t.Run(name, func(t *testing.T) {
			env := buildEnv(t, 768, 11)
			k := vicinity.DefaultK(env.N())
			base := mustBuild(t, env, k, compact)

			fails := drawNonBridgeLinks(t, env.G, 41, 4)
			for _, tc := range []struct {
				name  string
				fails []graph.EdgeKey
			}{
				{"single-link", fails[:1]},
				{"multi-link", fails},
			} {
				t.Run(tc.name, func(t *testing.T) {
					rep, err := base.ApplyFailures(tc.fails)
					if err != nil {
						t.Fatalf("ApplyFailures: %v", err)
					}
					build := Build
					if compact {
						build = BuildCompact
					}
					fresh, err := build(rep.Graph(), k, env.Landmarks)
					if err != nil {
						t.Fatalf("from-scratch rebuild: %v", err)
					}
					if !bytes.Equal(rep.CanonicalBytes(), fresh.CanonicalBytes()) {
						t.Fatal("repaired snapshot differs from a from-scratch rebuild of the failed topology")
					}
					st := rep.RepairStats()
					if st == nil || st.VicRebuilt == 0 {
						t.Fatalf("repair stats missing or empty: %+v", st)
					}
				})
			}

			// Chain: repair the repaired snapshot with further links and
			// compare against a rebuild with all links removed.
			rep1, err := base.ApplyFailures(fails[:2])
			if err != nil {
				t.Fatalf("ApplyFailures (first): %v", err)
			}
			rep2, err := rep1.ApplyFailures(fails[2:])
			if err != nil {
				t.Fatalf("ApplyFailures (chained): %v", err)
			}
			build := Build
			if compact {
				build = BuildCompact
			}
			fresh, err := build(rep2.Graph(), k, env.Landmarks)
			if err != nil {
				t.Fatalf("rebuild of chained topology: %v", err)
			}
			if !bytes.Equal(rep2.CanonicalBytes(), fresh.CanonicalBytes()) {
				t.Fatal("chained repair differs from a from-scratch rebuild")
			}
		})
	}
}

// TestSnapshotRepairBlastRadius asserts the cost contract at n=4096: a
// single random link failure must rebuild well under 20% of the shards
// (per-node vicinity windows + per-landmark forest rows) — blast-radius
// cost, not O(n).
func TestSnapshotRepairBlastRadius(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: n=4096 build")
	}
	n := 4096
	g := topology.GnmAvgDeg(rand.New(rand.NewSource(3)), n, 8)
	k := vicinity.DefaultK(n)
	// A modest explicit landmark set keeps the build quick; repair cost is
	// measured relative to whatever set is installed.
	lms := make([]graph.NodeID, 64)
	rng := rand.New(rand.NewSource(5))
	seen := map[graph.NodeID]bool{}
	for i := range lms {
		for {
			v := graph.NodeID(rng.Intn(n))
			if !seen[v] {
				seen[v] = true
				lms[i] = v
				break
			}
		}
	}
	base, err := Build(g, k, lms)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	fails := drawNonBridgeLinks(t, g, 17, 1)
	rep, err := base.ApplyFailures(fails)
	if err != nil {
		t.Fatalf("ApplyFailures: %v", err)
	}
	st := rep.RepairStats()
	if frac := st.ShardsRebuilt(); frac >= 0.20 {
		t.Fatalf("single link failure rebuilt %.1f%% of shards (%d/%d windows, %d/%d rows); want < 20%%",
			100*frac, st.VicRebuilt, st.VicTotal, st.RowsRebuilt, st.RowsTotal)
	}
	// The cheap repair must still be the correct one.
	fresh, err := Build(rep.Graph(), k, lms)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if !bytes.Equal(rep.CanonicalBytes(), fresh.CanonicalBytes()) {
		t.Fatal("repaired snapshot differs from a from-scratch rebuild")
	}
	t.Logf("blast radius: %d/%d windows, %d/%d rows (%.1f%% of shards), %d candidates scanned",
		st.VicRebuilt, st.VicTotal, st.RowsRebuilt, st.RowsTotal, 100*st.ShardsRebuilt(), st.Candidates)
}

// TestSnapshotRepairDisconnection: failing a bridge must not error — the
// repaired snapshot reports the partition through shrunken windows and
// Reaches, which is how failure experiments measure delivery ratio.
func TestSnapshotRepairDisconnection(t *testing.T) {
	// Two cliques joined by one bridge; landmark in the left clique.
	g := graph.New(8)
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			g.AddEdge(graph.NodeID(a), graph.NodeID(b), 1)
			g.AddEdge(graph.NodeID(a+4), graph.NodeID(b+4), 1)
		}
	}
	g.AddEdge(0, 4, 1)
	g.Finalize()
	k := 5
	base, err := Build(g, k, []graph.NodeID{1})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rep, err := base.ApplyFailures([]graph.EdgeKey{{U: 0, V: 4}})
	if err != nil {
		t.Fatalf("ApplyFailures on a bridge: %v", err)
	}
	// Right-clique nodes lose the landmark tree…
	for v := graph.NodeID(4); v < 8; v++ {
		if rep.Reaches(1, v) {
			t.Errorf("node %d still reaches landmark 1 across the failed bridge", v)
		}
	}
	// …and their windows shrink to their own side.
	for v := graph.NodeID(4); v < 8; v++ {
		set := rep.Vicinity(v)
		if set.Size() != 4 {
			t.Errorf("node %d window has %d members, want its 4-node component", v, set.Size())
		}
		for i := 0; i < set.Size(); i++ {
			if set.ID(i) < 4 {
				t.Errorf("node %d window contains cross-partition member %d", v, set.ID(i))
			}
		}
	}
	// Left-clique state is intact and the parent snapshot is untouched.
	for v := graph.NodeID(0); v < 4; v++ {
		if !rep.Reaches(1, v) {
			t.Errorf("node %d lost the landmark on the surviving side", v)
		}
	}
	if base.Vicinity(5).Size() != k {
		t.Error("parent snapshot mutated by repair")
	}
}

// TestApplyFailuresErrors pins the error cases: unknown links, self-loops
// and empty failure sets are caller mistakes, not panics.
func TestApplyFailuresErrors(t *testing.T) {
	env := buildEnv(t, 96, 2)
	base := mustBuild(t, env, vicinity.DefaultK(env.N()), false)
	if _, err := base.ApplyFailures(nil); err == nil {
		t.Error("empty failure set should error")
	}
	if _, err := base.ApplyFailures([]graph.EdgeKey{{U: 3, V: 3}}); err == nil {
		t.Error("self-loop should error")
	}
	// Find a non-adjacent pair.
	var u, v graph.NodeID = 0, 0
	for w := graph.NodeID(1); int(w) < env.N(); w++ {
		if env.G.EdgeID(0, w) < 0 {
			v = w
			break
		}
	}
	if v == 0 {
		t.Skip("node 0 adjacent to everyone")
	}
	if _, err := base.ApplyFailures([]graph.EdgeKey{{U: u, V: v}}); err == nil {
		t.Error("nonexistent link should error")
	}
}
