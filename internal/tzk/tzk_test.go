package tzk

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/topology"
)

func TestK1IsShortestPaths(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(1)), 100, 400)
	s := New(g, 1, rand.New(rand.NewSource(2)))
	for u := 0; u < 100; u += 7 {
		for v := 0; v < 100; v += 11 {
			d, _ := s.Dist(graph.NodeID(u), graph.NodeID(v))
			if d != s.TrueDist(graph.NodeID(u), graph.NodeID(v)) {
				t.Fatalf("k=1 estimate %v != true %v", d, s.TrueDist(graph.NodeID(u), graph.NodeID(v)))
			}
		}
	}
	// k=1 state is the full table.
	for _, e := range s.StateEntries() {
		if e < 100 {
			t.Fatalf("k=1 state %d below n", e)
		}
	}
}

func TestStretchBound2kMinus1(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		g := topology.Geometric(rand.New(rand.NewSource(3)), 400, 8)
		s := New(g, k, rand.New(rand.NewSource(4)))
		pairs := metrics.SamplePairs(rand.New(rand.NewSource(5)), 400, 300)
		bound := float64(2*k - 1)
		for _, p := range pairs {
			u, v := graph.NodeID(p.Src), graph.NodeID(p.Dst)
			true_ := s.TrueDist(u, v)
			est, _ := s.Dist(u, v)
			if est < true_-1e-9 {
				t.Fatalf("k=%d: estimate below true distance", k)
			}
			if est > bound*true_+1e-9 {
				t.Fatalf("k=%d: estimate stretch %v > %v", k, est/true_, bound)
			}
		}
	}
}

func TestRouteMatchesEstimate(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(6)), 300, 1200)
	s := New(g, 3, rand.New(rand.NewSource(7)))
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(8)), 300, 200)
	for _, p := range pairs {
		u, v := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		route := s.Route(u, v)
		if route[0] != u || route[len(route)-1] != v {
			t.Fatalf("route endpoints wrong")
		}
		est, _ := s.Dist(u, v)
		// The materialized route can only be shorter than the estimate
		// (backtrack trimming at w), never longer.
		if l := g.PathLength(route); l > est+1e-9 {
			t.Fatalf("route length %v exceeds estimate %v", l, est)
		}
	}
}

func TestBothDirectionsBounded(t *testing.T) {
	// The bunch-walk is not symmetric (u ∈ B(v) does not imply v ∈ B(u)),
	// but both query directions must satisfy the same 2k-1 bound against
	// the (symmetric) true distance.
	g := topology.Gnm(rand.New(rand.NewSource(9)), 200, 800)
	k := 3
	s := New(g, k, rand.New(rand.NewSource(10)))
	bound := float64(2*k - 1)
	for u := 0; u < 200; u += 17 {
		for v := 0; v < 200; v += 13 {
			if u == v {
				continue
			}
			true_ := s.TrueDist(graph.NodeID(u), graph.NodeID(v))
			du, _ := s.Dist(graph.NodeID(u), graph.NodeID(v))
			dv, _ := s.Dist(graph.NodeID(v), graph.NodeID(u))
			for _, d := range []float64{du, dv} {
				if d < true_-1e-9 || d > bound*true_+1e-9 {
					t.Fatalf("estimate %v outside [d, %v·d] for d=%v", d, bound, true_)
				}
			}
		}
	}
}

func TestStateShrinksWithK(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(11)), 1024, 4096)
	mean := func(k int) float64 {
		s := New(g, k, rand.New(rand.NewSource(12)))
		tot := 0
		for _, e := range s.StateEntries() {
			tot += e
		}
		return float64(tot) / 1024
	}
	m1, m2, m4 := mean(1), mean(2), mean(4)
	if !(m1 > m2 && m2 > m4) {
		t.Fatalf("state must shrink with k: %v %v %v", m1, m2, m4)
	}
	// k=2 mean should be in the O~(sqrt(n)) ballpark.
	if m2 > 40*math.Sqrt(1024) {
		t.Errorf("k=2 mean state %v far above sqrt(n) scale", m2)
	}
	t.Logf("mean state: k=1 %.0f, k=2 %.0f, k=4 %.0f", m1, m2, m4)
}

func TestLevelSizesDecrease(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(13)), 512, 2048)
	s := New(g, 4, rand.New(rand.NewSource(14)))
	sizes := make([]int, len(s.levels)) // |A_i|
	for i, l := range s.levels {
		sizes[i] = len(l)
	}
	if sizes[0] != 512 {
		t.Fatalf("A_0 must be all nodes")
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] > sizes[i-1] {
			t.Fatalf("levels must be nested: %v", sizes)
		}
		if sizes[i] == 0 {
			t.Fatalf("level %d empty", i)
		}
	}
}

func TestSelfDistance(t *testing.T) {
	g := topology.Ring(32)
	s := New(g, 2, rand.New(rand.NewSource(15)))
	for v := 0; v < 32; v++ {
		d, _ := s.Dist(graph.NodeID(v), graph.NodeID(v))
		if d != 0 {
			t.Fatalf("self distance %v", d)
		}
	}
}

func TestRejectsBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(topology.Ring(8), 0, rand.New(rand.NewSource(1)))
}

// TestForkRoutesMatchParent pins the struct-copy Fork: a fork shares the
// converged hierarchy and owns only its shortest-path scratch, so it
// returns the parent's routes and distances, and two forks driven from two
// goroutines agree with a serial pass (run under -race in CI).
func TestForkRoutesMatchParent(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"unit", topology.Gnm(rand.New(rand.NewSource(11)), 300, 1200)},
		{"geometric", topology.Geometric(rand.New(rand.NewSource(12)), 300, 8)},
	} {
		s := New(tc.g, 3, rand.New(rand.NewSource(13)))
		pairs := metrics.SamplePairs(rand.New(rand.NewSource(14)), tc.g.N(), 200)
		type answer struct {
			route []graph.NodeID
			dist  float64
		}
		ask := func(f *Scheme, p metrics.Pair) answer {
			u, v := graph.NodeID(p.Src), graph.NodeID(p.Dst)
			return answer{f.Route(u, v), f.TrueDist(u, v)}
		}
		want := make([]answer, len(pairs))
		for i, p := range pairs {
			want[i] = ask(s, p)
		}
		got := make([]answer, len(pairs))
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int, f *Scheme) {
				defer wg.Done()
				for i := w; i < len(pairs); i += 2 {
					got[i] = ask(f, pairs[i])
				}
			}(w, s.Fork())
		}
		wg.Wait()
		for i := range pairs {
			if !slices.Equal(got[i].route, want[i].route) || got[i].dist != want[i].dist {
				t.Fatalf("%s pair %v: fork answered (%v, %v), parent (%v, %v)",
					tc.name, pairs[i], got[i].route, got[i].dist, want[i].route, want[i].dist)
			}
		}
	}
}
