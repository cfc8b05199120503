package core

import (
	"math/rand"
	"slices"
	"testing"

	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/snapshot"
)

// TestWalkZeroAlloc pins the walk's zero-allocation contract, in the shape
// of forward's TestForwardZeroAlloc: with the fork's scratch and the
// caller's buffer at steady-state capacity, NDDisco.AppendRoute allocates
// nothing in either packet phase — on a base snapshot, and on the head of a
// repaired chain, whose windows and rows it reads through the repair
// overlay, in both storage regimes: a compact read decodes into the fork's
// window cache, whose slots are allocated by the warm-up — and appends
// exactly the route RepairedFirstRoute and RepairedLaterRoute return.
func TestWalkZeroAlloc(t *testing.T) {
	env, d := testEnv(t, 41, 1024, 4096)
	exact := d.ND.Snapshot()
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
		nd := d.ND.ForkRepaired(tc.snap)
		buf := make([]graph.NodeID, 0, 256)
		// Warm the scratch past its steady-state capacity first, checking
		// each route against the owned-route methods on the way:
		// AllocsPerRun's own warm-up call covers only its first pair.
		for i, p := range pairs {
			s, dst, later := graph.NodeID(p.Src), graph.NodeID(p.Dst), i%2 == 1
			want, wantOK := nd.RepairedFirstRoute(s, dst)
			if later {
				want, wantOK = nd.RepairedLaterRoute(s, dst)
			}
			var ok bool
			if buf, ok = nd.AppendRoute(buf[:0], s, dst, later); ok != wantOK || !slices.Equal(buf, want) {
				t.Fatalf("%s: %d->%d later=%v: AppendRoute (%v, %v), owned route (%v, %v)", tc.name, s, dst, later, buf, ok, want, wantOK)
			}
		}
		i := 0
		avg := testing.AllocsPerRun(2*len(pairs), func() {
			p := pairs[i%len(pairs)]
			buf, _ = nd.AppendRoute(buf[:0], graph.NodeID(p.Src), graph.NodeID(p.Dst), i%2 == 1)
			i++
		})
		if avg != 0 {
			t.Errorf("%s: AppendRoute allocates %.2f times per query, want 0", tc.name, avg)
		}
		if cached := nd.rd.Cached(); (cached > 0) != tc.snap.Compact() {
			t.Errorf("%s: the fork caches %d decoded windows", tc.name, cached)
		}
	}
}
