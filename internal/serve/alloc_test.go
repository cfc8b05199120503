//go:build !race

package serve_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"disco/internal/dynamics"
	"disco/internal/graph"
	"disco/internal/serve"
	"disco/internal/snapshot"
)

// TestPlaneServesDiscoAllocationFree pins the plane's one query path over
// Disco forks, on a base epoch and a repaired one: Route answers each first
// and later packet with exactly the route the epoch's fork hands its
// caller, and a warm Probe allocates nothing. The file is left out of
// -race builds, whose sync.Pool drops a share of Puts on purpose, so a
// pooled query context is rebuilt at random.
func TestPlaneServesDiscoAllocationFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: every query takes the same pooled context
	const n = 192
	env, base, d := buildServeEnv(t, n, 3)
	plane := serve.NewPlane(base, func(rep *snapshot.Snapshot) dynamics.Router {
		return d.ForkRepaired(rep)
	})
	defer plane.Close()
	rep, err := base.ApplyFailures(env.G.EdgeList()[:2])
	if err != nil {
		t.Fatalf("ApplyFailures: %v", err)
	}
	rng := rand.New(rand.NewSource(9))
	pairs := make([][2]graph.NodeID, 256)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
	}
	for ei, snap := range []*snapshot.Snapshot{base, rep} {
		if ei > 0 {
			if _, err := plane.Publish(snap); err != nil {
				t.Fatalf("Publish: %v", err)
			}
		}
		fork := d.ForkRepaired(snap)
		for i, pr := range pairs {
			later := i%2 == 1
			want, wantOK := fork.RepairedFirstRoute(pr[0], pr[1])
			if later {
				want, wantOK = fork.RepairedLaterRoute(pr[0], pr[1])
			}
			if res := plane.Route(pr[0], pr[1], later); res.OK != wantOK || fmt.Sprint(res.Route) != fmt.Sprint(want) {
				t.Fatalf("epoch %d %v later=%v: Route (%v, %v), the fork's owned route (%v, %v)", ei, pr, later, res.Route, res.OK, want, wantOK)
			}
			if res := plane.Probe(pr[0], pr[1], later); res.OK != wantOK || res.Route != nil {
				t.Fatalf("epoch %d %v later=%v: Probe (%v, %v), want (nil, %v)", ei, pr, later, res.Route, res.OK, wantOK)
			}
		}
		i := 0
		avg := testing.AllocsPerRun(2*len(pairs), func() {
			pr := pairs[i%len(pairs)]
			plane.Probe(pr[0], pr[1], i%2 == 1)
			i++
		})
		if avg != 0 {
			t.Errorf("epoch %d: Probe over Disco forks allocates %.2f times per query, want 0", ei, avg)
		}
	}
}
