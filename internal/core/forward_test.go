package core

import (
	"math/rand"
	"slices"
	"testing"

	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/snapshot"
)

func TestForwardFirstMatchesBounds(t *testing.T) {
	env, d := testEnv(t, 41, 400, 1600)
	nd := d.ND
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(42)), env.N(), 300)
	equal := 0
	for _, p := range pairs {
		s, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		short := nd.ShortestDist(s, dst)
		fwd := nd.ForwardFirst(s, dst)
		fwdLen := routeOK(t, env.G, fwd, s, dst)
		if fwdLen > 5*short+eps {
			t.Fatalf("hop-by-hop first packet stretch %v > 5", fwdLen/short)
		}
		// The materialized route may be shorter only by backtrack
		// trimming at the landmark joint; never longer.
		mat := env.G.PathLength(nd.FirstRoute(s, dst, ShortcutToDestination))
		if mat > fwdLen+eps {
			t.Fatalf("materialized route (%v) longer than forwarded packet (%v)", mat, fwdLen)
		}
		if mat == fwdLen {
			equal++
		}
	}
	if equal < len(pairs)*9/10 {
		t.Errorf("forwarded and materialized lengths should match on most pairs: %d/%d", equal, len(pairs))
	}
}

func TestForwardLaterHandshake(t *testing.T) {
	env, d := testEnv(t, 43, 300, 1200)
	nd := d.ND
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(44)), env.N(), 200)
	for _, p := range pairs {
		s, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		short := nd.ShortestDist(s, dst)
		fwd := nd.ForwardLater(s, dst)
		fwdLen := routeOK(t, env.G, fwd, s, dst)
		if fwdLen > 3*short+eps {
			t.Fatalf("hop-by-hop later packet stretch %v > 3", fwdLen/short)
		}
		// Handshake case must be exactly shortest.
		if nd.Vicinity(dst).Contains(s) && fwdLen != short {
			t.Fatalf("handshake forwarding not shortest: %v vs %v", fwdLen, short)
		}
	}
}

func TestDiscoForwardFirst(t *testing.T) {
	env, d := testEnv(t, 51, 400, 1600)
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(46)), env.N(), 300)
	for _, p := range pairs {
		s, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		short := d.ND.ShortestDist(s, dst)
		fb0, _ := d.Fallbacks()
		fwd := d.ForwardFirst(s, dst)
		fwdLen := routeOK(t, env.G, fwd, s, dst)
		if fb1, _ := d.Fallbacks(); fb1 != fb0 {
			continue // fallback: Theorem 1 does not apply
		}
		if fwdLen > 7*short+eps {
			t.Fatalf("hop-by-hop Disco first packet stretch %v > 7 (%d->%d)", fwdLen/short, s, dst)
		}
	}
}

func TestForwardSelfAndVicinity(t *testing.T) {
	env, d := testEnv(t, 47, 200, 800)
	nd := d.ND
	// Self.
	if p := nd.ForwardLater(9, 9); len(p) != 1 || p[0] != 9 {
		t.Fatal("self forward wrong")
	}
	// Vicinity member: exactly shortest.
	src := graph.NodeID(4)
	for vs, i := nd.Vicinity(src), 0; i < vs.Size(); i++ {
		w := vs.ID(i)
		if w == src {
			continue
		}
		fwd := nd.ForwardFirst(src, w)
		if env.G.PathLength(fwd) != nd.ShortestDist(src, w) {
			t.Fatalf("vicinity forwarding not shortest to %d", w)
		}
		break
	}
}

func TestForwardDeterministic(t *testing.T) {
	env, d := testEnv(t, 49, 250, 1000)
	a := d.ND.ForwardFirst(3, 200)
	b := d.ND.ForwardFirst(3, 200)
	if len(a) != len(b) {
		t.Fatal("forwarding must be deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("forwarding must be deterministic")
		}
	}
	_ = env
}

// TestForwardSnapshotRegime pins the hop-by-hop forwarding plane across
// the two snapshot encodings: a fork over the compact snapshot must
// forward every packet along exactly the path a fork over the exact one
// does, for both protocols and both packet generations (the test topology
// has unit weights, so float32 distance quantization is lossless and the
// compact encoding must match bit for bit). The exact leg pins fork ≡
// original on the same snapshot.
func TestForwardSnapshotRegime(t *testing.T) {
	env, exact := testEnv(t, 47, 300, 1200)
	compact, err := snapshot.BuildCompact(env.G, exact.ND.K, env.Landmarks)
	if err != nil {
		t.Fatalf("compact snapshot build: %v", err)
	}
	for _, regime := range []struct {
		name string
		snap *snapshot.Snapshot
	}{
		{"exact", exact.ND.Snapshot()},
		{"compact", compact},
	} {
		t.Run(regime.name, func(t *testing.T) {
			fork := exact.ForkRepaired(regime.snap)
			pairs := metrics.SamplePairs(rand.New(rand.NewSource(48)), env.N(), 200)
			for _, p := range pairs {
				s, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
				checks := []struct {
					name      string
					want, got []graph.NodeID
				}{
					{"ND.ForwardFirst", exact.ND.ForwardFirst(s, dst), fork.ND.ForwardFirst(s, dst)},
					{"ND.ForwardLater", exact.ND.ForwardLater(s, dst), fork.ND.ForwardLater(s, dst)},
					{"Disco.ForwardFirst", exact.ForwardFirst(s, dst), fork.ForwardFirst(s, dst)},
				}
				for _, c := range checks {
					if !slices.Equal(c.want, c.got) {
						t.Fatalf("%s(%d,%d): %s fork path %v != exact %v", c.name, s, dst, regime.name, c.got, c.want)
					}
				}
			}
		})
	}
}
