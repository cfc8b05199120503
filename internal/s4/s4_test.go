package s4

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/pathtree"
	"disco/internal/snapshot"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

const eps = 1e-9

// newS4 builds the S4 instance over env with a fresh snapshot installed
// (S4 reads only the landmark trees, so the vicinity size is immaterial).
func newS4(t *testing.T, env *static.Env) *S4 {
	t.Helper()
	snap, err := snapshot.Build(env.G, vicinity.DefaultK(env.N()), env.Landmarks)
	if err != nil {
		t.Fatalf("snapshot build: %v", err)
	}
	s := New(env, 1)
	s.UseSnapshot(snap)
	return s
}

func routeOK(t *testing.T, g *graph.Graph, route []graph.NodeID, s, dst graph.NodeID) float64 {
	t.Helper()
	if len(route) == 0 || route[0] != s || route[len(route)-1] != dst {
		t.Fatalf("route endpoints wrong: %v (want %d..%d)", route, s, dst)
	}
	return g.PathLength(route)
}

func TestS4LaterStretch3(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(1)), 400, 1600)
	env := static.NewEnv(g, 1)
	s := newS4(t, env)
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(2)), 400, 300)
	for _, p := range pairs {
		src, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		short := s.ShortestDist(src, dst)
		later := routeOK(t, g, s.LaterRoute(src, dst), src, dst)
		if later > 3*short+eps {
			t.Fatalf("S4 later stretch %v > 3 (%d->%d)", later/short, src, dst)
		}
	}
}

func TestS4LaterStretch3Weighted(t *testing.T) {
	g := topology.Geometric(rand.New(rand.NewSource(3)), 500, 8)
	env := static.NewEnv(g, 3)
	s := newS4(t, env)
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(4)), 500, 300)
	for _, p := range pairs {
		src, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		short := s.ShortestDist(src, dst)
		later := routeOK(t, g, s.LaterRoute(src, dst), src, dst)
		if later > 3*short+eps {
			t.Fatalf("S4 later stretch %v > 3 on weighted graph", later/short)
		}
	}
}

func TestS4FirstUnboundedVsLater(t *testing.T) {
	// First packets detour through the resolution landmark; their mean
	// stretch must exceed later packets' on a latency-weighted graph, and
	// individual first packets can blow well past stretch 3 (Fig. 3).
	g := topology.Geometric(rand.New(rand.NewSource(5)), 800, 8)
	env := static.NewEnv(g, 5)
	s := newS4(t, env)
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(6)), 800, 400)
	sumF, sumL, maxF := 0.0, 0.0, 0.0
	n := 0
	for _, p := range pairs {
		src, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		short := s.ShortestDist(src, dst)
		if short == 0 {
			continue
		}
		f := routeOK(t, g, s.FirstRoute(src, dst), src, dst) / short
		l := routeOK(t, g, s.LaterRoute(src, dst), src, dst) / short
		sumF += f
		sumL += l
		if f > maxF {
			maxF = f
		}
		n++
	}
	if sumF/float64(n) <= sumL/float64(n) {
		t.Errorf("S4 first-packet mean stretch (%v) should exceed later (%v)",
			sumF/float64(n), sumL/float64(n))
	}
	if maxF <= 3 {
		t.Errorf("expected some S4 first packets above stretch 3, max %v", maxF)
	}
}

func TestClusterSizeConsistency(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(7)), 300, 1200)
	env := static.NewEnv(g, 7)
	s := newS4(t, env)
	all := s.ClusterSizesAll()
	for v := 0; v < 300; v += 17 {
		if got := s.ClusterSize(graph.NodeID(v)); got != all[v] {
			t.Fatalf("ClusterSize(%d)=%d but ClusterSizesAll says %d", v, got, all[v])
		}
	}
}

func TestClusterDefinition(t *testing.T) {
	// Both sides of d(v,w) < d(w, l_w) are read off one Dijkstra rooted at
	// w, matching the protocol's own accounting — float sums depend on
	// association order, so the landmark-rooted env.LMDist[w] may differ
	// from the radius in the last ulp (checked separately below).
	g := topology.Geometric(rand.New(rand.NewSource(8)), 200, 8)
	env := static.NewEnv(g, 8)
	s := newS4(t, env)
	ss := graph.NewSSSP(g)
	for w := 0; w < 200; w += 13 {
		ss.Run(graph.NodeID(w))
		radius := ss.Dist(env.LMOf[w])
		if math.Abs(radius-env.LMDist[w]) > eps {
			t.Fatalf("d(%d, l_w)=%v but env.LMDist says %v", w, radius, env.LMDist[w])
		}
		for v := 0; v < 200; v++ {
			if v == w {
				continue
			}
			want := ss.Dist(graph.NodeID(v)) < radius
			if _, _, in := s.cluster(graph.NodeID(w)); in(graph.NodeID(v)) != want {
				t.Fatalf("in cluster(%d, %d) = %v, want %v", v, w, !want, want)
			}
		}
	}
}

func TestS4WorstCaseTreeState(t *testing.T) {
	// The paper's footnote 6: on the two-level tree, S4's root cluster is
	// Θ(n) while Disco's per-node state stays Θ(sqrt(n log n)).
	k := 32 // n = 1 + 32 + 1024 = 1057
	g := topology.S4WorstTree(k)
	n := g.N()
	env := static.NewEnv(g, 9)
	s := New(env, 1)
	sizes := s.ClusterSizesAll()
	root := sizes[0]
	if root < n/3 {
		t.Errorf("expected Θ(n) cluster at root, got %d of %d", root, n)
	}
	// Disco bound on the same topology (vicinities are capped at K).
	kVic := vicinity.DefaultK(n)
	if float64(root) < 2*float64(kVic) {
		t.Errorf("root cluster %d should dwarf Disco's vicinity %d", root, kVic)
	}
}

func TestS4StateEntries(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(10)), 256, 1024)
	env := static.NewEnv(g, 10)
	s := New(env, 1)
	sizes := s.ClusterSizesAll()
	entries, _ := s.StateVectors(sizes)
	nLM := len(env.Landmarks)
	totalRes := 0
	for v := 0; v < 256; v++ {
		if entries[v] < nLM+sizes[v] {
			t.Fatalf("state at %d below landmarks+cluster", v)
		}
		if !env.IsLM[v] {
			// Non-landmarks hold no resolution entries: state is exactly
			// landmarks + cluster + labels.
			labels := g.Degree(graph.NodeID(v))
			if m := nLM + sizes[v]; labels > m {
				labels = m
			}
			if entries[v] != nLM+sizes[v]+labels {
				t.Fatalf("state accounting wrong at %d", v)
			}
		}
	}
	for _, lm := range env.Landmarks {
		labels := g.Degree(lm)
		if m := nLM + sizes[lm]; labels > m {
			labels = m
		}
		totalRes += entries[lm] - nLM - sizes[lm] - labels
	}
	if totalRes != 256 {
		t.Fatalf("resolution entries across landmarks %d want 256", totalRes)
	}
}

func TestS4MeanStateBelowDiscoOnRandomGraph(t *testing.T) {
	// §5.2: "Average state is slightly higher in NDDisco than S4" on
	// well-behaved topologies — S4 clusters can undercut fixed vicinities.
	g := topology.Gnm(rand.New(rand.NewSource(11)), 1024, 4096)
	env := static.NewEnv(g, 11)
	s := New(env, 1)
	sizes := s.ClusterSizesAll()
	mean := 0.0
	for _, c := range sizes {
		mean += float64(c)
	}
	mean /= float64(len(sizes))
	k := float64(vicinity.DefaultK(1024))
	if mean > 3*k {
		t.Errorf("mean cluster size %v should be comparable to vicinity size %v on a random graph", mean, k)
	}
	if math.IsNaN(mean) {
		t.Fatal("NaN")
	}
}

// TestRouteBeforeUseSnapshotPanics pins the harness invariant: routing
// without an installed snapshot panics naming the missing call, while
// state-only accounting needs none.
func TestRouteBeforeUseSnapshotPanics(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(12)), 64, 256)
	s := New(static.NewEnv(g, 12), 1)
	s.StateVectors(s.ClusterSizesAll())
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "UseSnapshot") {
			t.Fatalf("want a panic naming UseSnapshot, got %q", msg)
		}
	}()
	s.Fork().LaterRoute(1, 2)
}

// scanCluster is cluster's rule as S4 defines it, evaluated the slow way:
// every landmark's distance read off a full Dijkstra from t, the minimum
// winning, ties to the lowest ID, graph.None and +Inf when t reaches none.
func scanCluster(env *static.Env, ref *graph.SSSP, t graph.NodeID) (lm graph.NodeID, radius float64) {
	ref.Run(t)
	lm, radius = graph.None, math.Inf(1)
	for _, l := range env.Landmarks {
		if dl := ref.Dist(l); dl < radius || (dl == radius && lm != graph.None && l < lm) {
			lm, radius = l, dl
		}
	}
	return lm, radius
}

// checkClusters compares cluster(t) — two bounded queries on the lazy
// destination tree — with scanCluster for every t, and the membership test
// for every (u, t).
func checkClusters(t *testing.T, name string, s *S4) {
	t.Helper()
	g := s.snapshot().Graph()
	ref := graph.NewSSSP(g)
	for dst := graph.NodeID(0); int(dst) < g.N(); dst++ {
		wantLM, radius := scanCluster(s.Env, ref, dst)
		_, lm, in := s.cluster(dst)
		if lm != wantLM {
			t.Fatalf("%s: cluster(%d) landmark %d, the scan says %d (radius %v)", name, dst, lm, wantLM, radius)
		}
		for u := graph.NodeID(0); int(u) < g.N(); u++ {
			if want := u == dst || ref.Dist(u) < radius; in(u) != want {
				t.Fatalf("%s: %d in cluster(%d) = %v, want %v (d %v, radius %v)", name, u, dst, in(u), want, ref.Dist(u), radius)
			}
		}
	}
}

// TestClusterMatchesLandmarkScan pins the bounded cluster rule against its
// definition on the three unit-weight topologies, and on a repaired
// snapshot where one component has lost every landmark.
func TestClusterMatchesLandmarkScan(t *testing.T) {
	const n = 512
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm", topology.Gnm(rand.New(rand.NewSource(21)), n, 4*n)},
		{"aslike", topology.ASLike(rand.New(rand.NewSource(22)), n)},
		{"routerlike", topology.RouterLike(rand.New(rand.NewSource(23)), n)},
	} {
		s := newS4(t, static.NewEnv(tc.g, 21))
		checkClusters(t, tc.name, s)
		if tc.name != "gnm" {
			continue
		}
		// Cut a landmark-free pair {a, b} out of the graph: every link of
		// either except the one between them.
		env, a, b := s.Env, graph.None, graph.None
		for v := graph.NodeID(0); int(v) < n && a == graph.None; v++ {
			for _, e := range tc.g.Neighbors(v) {
				if !env.IsLM[v] && !env.IsLM[e.To] {
					a, b = v, e.To
					break
				}
			}
		}
		var fails []graph.EdgeKey
		for _, v := range []graph.NodeID{a, b} {
			for _, e := range tc.g.Neighbors(v) {
				if e.To != a && e.To != b {
					fails = append(fails, graph.EdgeKey{U: v, V: e.To})
				}
			}
		}
		rep, err := s.snapshot().ApplyFailures(fails)
		if err != nil {
			t.Fatalf("ApplyFailures: %v", err)
		}
		f := s.ForkRepaired(rep, nil)
		if _, lm, in := f.cluster(a); lm != graph.None || !in(b) {
			t.Fatalf("cluster(%d) in the landmark-free component {%d,%d}: landmark %d, in(%d) %v", a, a, b, lm, b, in(b))
		}
		checkClusters(t, "gnm repaired", f)
	}
}

// TestInClusterAllPairs: the cluster test t ∈ C(v) for every ordered pair at n=128,
// each on a fork whose destination tree was last bound somewhere else.
func TestInClusterAllPairs(t *testing.T) {
	const n = 128
	g := topology.RouterLike(rand.New(rand.NewSource(24)), n)
	s := newS4(t, static.NewEnv(g, 24))
	ref := graph.NewSSSP(g)
	for dst := graph.NodeID(0); dst < n; dst++ {
		for v := graph.NodeID(0); v < n; v++ {
			_, radius := scanCluster(s.Env, ref, dst)
			want := v == dst || ref.Dist(v) < radius
			s.destTree(v) // rebind, so every call starts from a bare root
			if _, _, in := s.cluster(dst); in(v) != want {
				t.Fatalf("in cluster(%d, %d) = %v, want %v", v, dst, !want, want)
			}
		}
	}
}

// TestForkRepairedRejectsForeignScratch: a destination scratch over any
// graph but the snapshot's would silently answer with that graph's
// distances.
func TestForkRepairedRejectsForeignScratch(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(25)), 64, 256)
	s := newS4(t, static.NewEnv(g, 25))
	s.ForkWith(pathtree.NewLazy(g)) // the snapshot's own graph is fine
	rep, err := s.snapshot().ApplyFailures([]graph.EdgeKey{g.EdgeList()[0]})
	if err != nil {
		t.Fatalf("ApplyFailures: %v", err)
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "different graph") {
			t.Fatalf("want a panic naming the graph mismatch, got %q", msg)
		}
	}()
	s.ForkRepaired(rep, pathtree.NewLazy(g)) // pristine scratch, failed topology
}

// ClusterSize returns |C(v)| exactly (one full Dijkstra from v): the count
// of nodes strictly closer to v than to their own landmark, under the
// environment's landmark distances like ClusterSizesAll (state accounting
// describes the converged pristine topology): the reference
// ClusterSizesAll is checked against.
func (s *S4) ClusterSize(v graph.NodeID) int {
	count := 0
	d := s.destTree(v)
	for w := 0; w < s.Env.N(); w++ {
		if graph.NodeID(w) == v {
			continue
		}
		if d.Dist(graph.NodeID(w)) < s.Env.LMDist[w] {
			count++
		}
	}
	return count
}
