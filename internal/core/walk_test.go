package core

import (
	"math/rand"
	"slices"
	"testing"

	"disco/internal/dynamics"
	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/snapshot"
)

// ownedRouter is a routing fork with both route forms: the dynamics.Router
// call and the owned-route methods bench/ calls.
type ownedRouter interface {
	dynamics.Router
	RepairedFirstRoute(s, t graph.NodeID) ([]graph.NodeID, bool)
	RepairedLaterRoute(s, t graph.NodeID) ([]graph.NodeID, bool)
}

// TestWalkZeroAlloc pins the walk's zero-allocation contract, in the shape
// of forward's TestForwardZeroAlloc: with the fork's scratch and the
// caller's buffer at steady-state capacity, NDDisco.AppendRoute and
// Disco.AppendRoute allocate nothing in either packet phase — on a base
// snapshot, and on the head of a repaired chain, whose windows and rows
// they read through the repair overlay, in both storage regimes: a compact
// lookup reads the encoded window in place, so no route decodes a window —
// and append exactly the route RepairedFirstRoute and RepairedLaterRoute
// return. Each of those allocates once a delivered route: the copy it
// hands its caller.
func TestWalkZeroAlloc(t *testing.T) {
	env, d := testEnv(t, 41, 1024, 4096)
	exact := d.ND.snap
	compact, err := snapshot.BuildCompact(env.G, d.ND.K, env.Landmarks)
	if err != nil {
		t.Fatal(err)
	}
	edges := env.G.EdgeList()
	chainHead := func(base *snapshot.Snapshot) *snapshot.Snapshot {
		t.Helper()
		rep, err := base.ApplyFailures(edges[:1])
		if err != nil {
			t.Fatal(err)
		}
		head, err := rep.ApplyFailures(edges[1:2])
		if err != nil {
			t.Fatal(err)
		}
		if head.OverlayShards() == 0 {
			t.Fatal("the chain head reads no repaired shard")
		}
		return head
	}
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(41)), env.N(), 512)
	for _, tc := range []struct {
		name string
		snap *snapshot.Snapshot
	}{
		{"exact base", exact}, {"exact repaired chain head", chainHead(exact)},
		{"compact base", compact}, {"compact repaired chain head", chainHead(compact)},
	} {
		for _, r := range []struct {
			name string
			fork ownedRouter
		}{{"NDDisco", d.ND.ForkRepaired(tc.snap)}, {"Disco", d.ForkRepaired(tc.snap)}} {
			name := tc.name + " " + r.name
			owned := func(s, dst graph.NodeID, later bool) ([]graph.NodeID, bool) {
				if later {
					return r.fork.RepairedLaterRoute(s, dst)
				}
				return r.fork.RepairedFirstRoute(s, dst)
			}
			buf := make([]graph.NodeID, 0, 256)
			// Warm the scratch past its steady-state capacity first, checking
			// each route against the owned-route methods on the way:
			// AllocsPerRun's own warm-up call covers only its first pair.
			delivered := 0
			for i, p := range pairs {
				s, dst, later := graph.NodeID(p.Src), graph.NodeID(p.Dst), i%2 == 1
				want, wantOK := owned(s, dst, later)
				var ok bool
				if buf, ok = r.fork.AppendRoute(buf[:0], s, dst, later); ok != wantOK || !slices.Equal(buf, want) {
					t.Fatalf("%s: %d->%d later=%v: AppendRoute (%v, %v), owned route (%v, %v)", name, s, dst, later, buf, ok, want, wantOK)
				}
				if ok {
					delivered++
				}
			}
			i := 0
			avg := testing.AllocsPerRun(2*len(pairs), func() {
				p := pairs[i%len(pairs)]
				buf, _ = r.fork.AppendRoute(buf[:0], graph.NodeID(p.Src), graph.NodeID(p.Dst), i%2 == 1)
				i++
			})
			if avg != 0 {
				t.Errorf("%s: AppendRoute allocates %.2f times per query, want 0", name, avg)
			}
			total := testing.AllocsPerRun(1, func() {
				for i, p := range pairs {
					owned(graph.NodeID(p.Src), graph.NodeID(p.Dst), i%2 == 1)
				}
			})
			if int(total) != delivered {
				t.Errorf("%s: %d owned routes (%d delivered) allocate %.0f times, want one copy each", name, len(pairs), delivered, total)
			}
		}
	}
}
