package vrr

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/static"
	"disco/internal/topology"
)

func build(t *testing.T, seed int64, n, m int) (*static.Env, *VRR) {
	t.Helper()
	g := topology.Gnm(rand.New(rand.NewSource(seed)), n, m)
	env := static.NewEnv(g, seed)
	return env, New(env, 4, 0)
}

func TestAllNodesJoin(t *testing.T) {
	env, v := build(t, 1, 200, 800)
	if len(v.ring) != env.N() {
		t.Fatalf("ring has %d of %d nodes", len(v.ring), env.N())
	}
	// Every node ends with a full vset of r=4 (up to tiny rings).
	for u := 0; u < env.N(); u++ {
		if got := v.VSetSize(graph.NodeID(u)); got < 2 {
			t.Errorf("node %d has vset size %d (< 2)", u, got)
		}
	}
}

func TestRoutingDelivers(t *testing.T) {
	env, v := build(t, 2, 300, 1200)
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(3)), env.N(), 300)
	for _, p := range pairs {
		s, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		route := v.Route(s, dst)
		if len(route) == 0 || route[0] != s || route[len(route)-1] != dst {
			t.Fatalf("VRR route endpoints wrong: %d->%d got %v", s, dst, route)
		}
		// Path validity: consecutive nodes adjacent.
		env.G.PathLength(route)
	}
}

func TestStretchAboveOne(t *testing.T) {
	env, v := build(t, 4, 400, 1600)
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(5)), env.N(), 300)
	total, count, maxSt := 0.0, 0, 0.0
	for _, p := range pairs {
		s, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		short := v.destTree(dst).Dist(s)
		if short == 0 {
			continue
		}
		l := env.G.PathLength(v.Route(s, dst))
		st := l / short
		if st < 1-1e-9 {
			t.Fatalf("VRR stretch < 1")
		}
		total += st
		count++
		if st > maxSt {
			maxSt = st
		}
	}
	mean := total / float64(count)
	// The paper reports high VRR stretch (mean up to ~8 on realistic
	// topologies, max 39 on geometric). On a 400-node random graph it
	// should be noticeably above 1 and above Disco's typical mean.
	if mean < 1.05 {
		t.Errorf("VRR mean stretch %v suspiciously low", mean)
	}
	t.Logf("VRR mean stretch %.3f max %.3f (stuck=%d)", mean, maxSt, v.Stuck)
}

func TestStateConcentration(t *testing.T) {
	// VRR stores per-path state at intermediate nodes: max state should
	// far exceed the mean (the Fig. 4/5 signature).
	env, v := build(t, 6, 512, 2048)
	entries := v.StateEntries()
	mean, max := 0.0, 0
	for _, e := range entries {
		mean += float64(e)
		if e > max {
			max = e
		}
	}
	mean /= float64(len(entries))
	if float64(max) < 2*mean {
		t.Errorf("expected a heavy state tail: max %d vs mean %.1f", max, mean)
	}
	// Total vpaths ≈ n * r/2 (each of n joins sets up ~r/2 new paths net).
	if v.NumPaths() < env.N() {
		t.Errorf("too few vpaths: %d", v.NumPaths())
	}
}

func TestVsetPathsExistAndConnect(t *testing.T) {
	env, v := build(t, 7, 150, 600)
	for u := 0; u < env.N(); u++ {
		for peer, pid := range v.vsets[graph.NodeID(u)] {
			p, ok := v.paths[pid]
			if !ok {
				t.Fatalf("vset of %d references dead path %d", u, pid)
			}
			if (p.a != graph.NodeID(u) || p.b != peer) && (p.b != graph.NodeID(u) || p.a != peer) {
				t.Fatalf("path %d endpoints (%d,%d) do not match vset (%d,%d)", pid, p.a, p.b, u, peer)
			}
			env.G.PathLength(p.nodes) // adjacency check
			if p.nodes[0] != p.a || p.nodes[len(p.nodes)-1] != p.b {
				t.Fatalf("path nodes endpoints wrong")
			}
		}
	}
}

func TestTablesMatchPaths(t *testing.T) {
	_, v := build(t, 8, 100, 400)
	// Every table entry must reference a live path that passes through
	// the node.
	for u := range v.tables {
		for pid, e := range v.tables[u] {
			p, ok := v.paths[pid]
			if !ok {
				t.Fatalf("table of %d references dead path %d", u, pid)
			}
			found := false
			for i, x := range p.nodes {
				if x == graph.NodeID(u) {
					found = true
					if e.toward != graph.None && p.nodes[i+1] != e.toward {
						t.Fatalf("toward pointer broken")
					}
					if e.back != graph.None && p.nodes[i-1] != e.back {
						t.Fatalf("back pointer broken")
					}
					break
				}
			}
			if !found {
				t.Fatalf("node %d not on path %d it has an entry for", u, pid)
			}
		}
	}
}

func TestRejectsOddR(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd r")
		}
	}()
	g := topology.Ring(10)
	env := static.NewEnv(g, 1)
	New(env, 3, 0)
}

func TestDeterministic(t *testing.T) {
	_, v1 := build(t, 9, 120, 480)
	_, v2 := build(t, 9, 120, 480)
	e1 := v1.StateEntries()
	e2 := v2.StateEntries()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("VRR must be deterministic for a fixed seed")
		}
	}
}

// TestForkRoutesMatchParent pins the struct-copy Fork: a fork shares the
// sealed arrays, starts its own Stuck count at zero and owns its
// shortest-path scratch, so it returns the parent's routes and distances,
// and two forks driven from two goroutines agree with a serial pass — their
// Stuck counts summing to the serial one (run under -race in CI).
func TestForkRoutesMatchParent(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"unit", topology.Gnm(rand.New(rand.NewSource(21)), 300, 1200)},
		{"geometric", topology.Geometric(rand.New(rand.NewSource(22)), 300, 8)},
	} {
		v := New(static.NewEnv(tc.g, 23), 4, 0)
		pairs := metrics.SamplePairs(rand.New(rand.NewSource(24)), tc.g.N(), 200)
		type answer struct {
			route []graph.NodeID
			dist  float64
		}
		ask := func(f *VRR, p metrics.Pair) answer {
			s, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
			return answer{f.Route(s, dst), f.destTree(dst).Dist(s)}
		}
		built := v.Stuck
		want := make([]answer, len(pairs))
		for i, p := range pairs {
			want[i] = ask(v, p)
		}
		forks := [2]*VRR{v.Fork(), v.Fork()}
		for _, f := range forks {
			if f.Stuck != 0 || f.dest != nil {
				t.Fatalf("%s: fork starts with Stuck %d, dest %p", tc.name, f.Stuck, f.dest)
			}
			if &f.flat[0] != &v.flat[0] || &f.off[0] != &v.off[0] || &f.voff[0] != &v.voff[0] {
				t.Fatalf("%s: fork copied the sealed arrays", tc.name)
			}
		}
		got := make([]answer, len(pairs))
		var wg sync.WaitGroup
		for w, f := range forks {
			wg.Add(1)
			go func(w int, f *VRR) {
				defer wg.Done()
				for i := w; i < len(pairs); i += 2 {
					got[i] = ask(f, pairs[i])
				}
			}(w, f)
		}
		wg.Wait()
		for i := range pairs {
			if !slices.Equal(got[i].route, want[i].route) || got[i].dist != want[i].dist {
				t.Fatalf("%s pair %v: fork answered (%v, %v), parent (%v, %v)",
					tc.name, pairs[i], got[i].route, got[i].dist, want[i].route, want[i].dist)
			}
		}
		if sum := forks[0].Stuck + forks[1].Stuck; sum != v.Stuck-built {
			t.Fatalf("%s: forks were stuck %d times, the serial pass %d", tc.name, sum, v.Stuck-built)
		}
	}
}

// NumPaths returns the number of live vset paths.
func (v *VRR) NumPaths() int {
	if v.sealed {
		return v.numPaths
	}
	return len(v.paths)
}

// VSetSize returns |vset(u)|.
func (v *VRR) VSetSize(u graph.NodeID) int {
	if v.sealed {
		return int(v.voff[u+1] - v.voff[u])
	}
	return len(v.vsets[u])
}
