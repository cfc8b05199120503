package snapshot

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"disco/internal/graph"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

// recoverSome restores count random currently-down links in one event,
// with their base weights.
func (d *chainDriver) recoverSome(t *testing.T, rng *rand.Rand, count int) {
	t.Helper()
	var links []graph.WeightedLink
	for _, i := range rng.Perm(len(d.down))[:count] {
		key := d.down[i]
		links = append(links, graph.WeightedLink{U: key.U, V: key.V, W: d.baseG.EdgeWeight(key.U, key.V)})
	}
	rep, err := d.cur.ApplyRecoveries(links)
	if err != nil {
		t.Fatalf("ApplyRecoveries(%v): %v", links, err)
	}
	d.cur = rep
	d.down = slices.DeleteFunc(d.down, func(k graph.EdgeKey) bool {
		return slices.ContainsFunc(links, func(l graph.WeightedLink) bool { return l.U == k.U && l.V == k.V })
	})
}

// checkOnlyChanges requires the chain head s to hold the route state a
// from-scratch build of its graph holds, and names a window that differs by
// whether its event recomputed it. Where the event left no window short it
// also requires every recomputed window to have changed.
func checkOnlyChanges(t *testing.T, step int, s *Snapshot) {
	t.Helper()
	st := s.RepairStats()
	if len(s.short) == 0 && st.VicRebuilt != st.VicChanged {
		t.Fatalf("step %d: recomputed %d windows, of which %d changed", step, st.VicRebuilt, st.VicChanged)
	}
	fresh, err := Build(s.Graph(), s.K(), s.landmarks)
	if err != nil {
		t.Fatalf("step %d: from-scratch rebuild: %v", step, err)
	}
	for v := range graph.NodeID(s.Graph().N()) {
		if d := diffWindows(s.Vicinity(v), s.AppendMembers(nil, v), fresh.Vicinity(v)); d != 0 {
			_, touched := slices.BinarySearch(st.VicTouched, v)
			t.Fatalf("step %d: window %d (recomputed: %v) differs from a rebuild in %d entries", step, v, touched, d)
		}
	}
	for row := range s.landmarks {
		if !slices.Equal(s.forestRow(row), fresh.forestRow(row)) {
			t.Fatalf("step %d: forest row %d differs from a rebuild", step, row)
		}
	}
}

// randomGraph returns a connected graph of 8–67 nodes: a random tree plus
// up to 3n extra links, weighing 1, an integer up to 3, or a float in
// [0.1, 1.1) by the seed.
func randomGraph(rng *rand.Rand, seed int64) *graph.Graph {
	n := 8 + rng.Intn(60)
	g := graph.New(n)
	linked := make(map[graph.EdgeKey]bool)
	link := func(u, v graph.NodeID) {
		if key := (graph.EdgeKey{U: u, V: v}).Norm(); u != v && !linked[key] {
			linked[key] = true
			w := 1.0
			switch seed % 3 {
			case 0:
				w = 0.1 + rng.Float64()
			case 1:
				w = float64(1 + rng.Intn(3))
			}
			g.AddEdge(u, v, w)
		}
	}
	for v := 1; v < n; v++ {
		link(graph.NodeID(v), graph.NodeID(rng.Intn(v)))
	}
	for i := 0; i < n*rng.Intn(4); i++ {
		link(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g.Finalize()
	return g
}

// checkRandomChain drives both regimes through 25 events of one to three
// links each over a random graph, failures free to disconnect it, and then
// restores every link still down. Each event that leaves the graph
// connected must equal a from-scratch build, and one that leaves no window
// short must recompute only the windows it changes; the last event must
// land on the base.
func checkRandomChain(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := randomGraph(rng, seed)
	n := g.N()
	lms := []graph.NodeID{0, graph.NodeID(n / 2), graph.NodeID(n - 1)}
	k := 2 + rng.Intn(n-2)
	for _, build := range []func(*graph.Graph, int, []graph.NodeID) (*Snapshot, error){Build, BuildCompact} {
		base, err := build(g, k, lms)
		if err != nil {
			t.Fatal(err)
		}
		cur := base
		var down []graph.WeightedLink
		for step := 0; step < 25; step++ {
			if edges := cur.Graph().EdgeList(); len(edges) > 0 && (len(down) == 0 || rng.Intn(2) == 0) {
				var fails []graph.EdgeKey
				for _, i := range rng.Perm(len(edges))[:min(1+rng.Intn(3), len(edges))] {
					l := edges[i]
					fails = append(fails, l)
					down = append(down, graph.WeightedLink{U: l.U, V: l.V, W: g.EdgeWeight(l.U, l.V)})
				}
				cur, err = cur.ApplyFailures(fails)
			} else {
				var restores []graph.WeightedLink
				for range 1 + rng.Intn(min(3, len(down))) {
					i := rng.Intn(len(down))
					restores = append(restores, down[i])
					down = slices.Delete(down, i, i+1)
				}
				cur, err = cur.ApplyRecoveries(restores)
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if cur.Graph().Connected() {
				checkOnlyChanges(t, step, cur)
			}
		}
		if len(down) > 0 {
			if cur, err = cur.ApplyRecoveries(down); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if !bytes.Equal(cur.CanonicalBytes(), base.CanonicalBytes()) {
			t.Fatalf("seed %d (compact=%v): restoring every link did not land on the base", seed, cur.Compact())
		}
	}
}

// TestRepairRecomputesOnlyChanges: on a connected chain, a repair that
// leaves no window short recomputes exactly the vicinity windows its event
// changes (VicRebuilt == VicChanged), and every window it leaves alone is
// the one a from-scratch build holds. The chains are the chain tests'
// G(n,m) and geometric maps and router-like n=2048, in both regimes,
// through interleaved failures and recoveries; on the geometric map some
// events restore two or three links at once, where the per-link tests
// compose. Random small graphs — unit, integer and float weights, events
// of one to three links that may disconnect them — check the same on every
// connected step; on float weights a ball and a window add one path's
// weights in opposite orders, which the candidate bounds must allow for.
func TestRepairRecomputesOnlyChanges(t *testing.T) {
	router := topology.RouterLike(rand.New(rand.NewSource(1)), 2048)
	maps := []struct {
		name  string
		env   *static.Env
		multi bool // some recoveries restore 2–3 links at once
	}{
		{"gnm", buildEnv(t, 384, 11), false},
		{"geometric", buildGeoEnv(t, 384, 11), true},
		{"routerlike", static.NewEnv(router, 1), false},
	}
	for _, compact := range []bool{false, true} {
		t.Run(fmt.Sprintf("compact=%v", compact), func(t *testing.T) {
			for _, tc := range maps {
				t.Run(tc.name, func(t *testing.T) {
					d := newChainDriver(mustBuild(t, tc.env, vicinity.DefaultK(tc.env.N()), compact))
					rng := rand.New(rand.NewSource(31))
					multi := 0
					for step := 0; step < 16; step++ {
						switch {
						case len(d.down) < 3 || rng.Intn(5) < 2:
							d.failOne(t, rng, true)
						case tc.multi && rng.Intn(2) == 0:
							d.recoverSome(t, rng, 2+rng.Intn(2))
							multi++
						default:
							d.recoverOne(t, rng)
						}
						checkOnlyChanges(t, step, d.cur)
					}
					if tc.multi && multi == 0 {
						t.Fatal("no event restored more than one link")
					}
				})
			}
		})
	}
	t.Run("random-small", func(t *testing.T) {
		for seed := range int64(100) {
			checkRandomChain(t, seed)
		}
		// Seed 2268's first failure misses a window when the ball bound has
		// no slack: a float-weighted ball reaches the window's last member
		// one bit beyond the largest radius.
		checkRandomChain(t, 2268)
	})
}
