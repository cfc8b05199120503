package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"disco/internal/dynamics"
	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/pathtree"
	"disco/internal/snapshot"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

const eps = 1e-9

// testEnv builds a Gnm environment where the w.h.p. preconditions of
// Theorem 1 are verified to hold (every node has a landmark in its
// vicinity).
func testEnv(t *testing.T, seed int64, n, m int) (*static.Env, *Disco) {
	t.Helper()
	g := topology.Gnm(rand.New(rand.NewSource(seed)), n, m)
	env := static.NewEnv(g, seed)
	d := withSnapshot(t, NewDisco(env, WithSeed(seed)))
	for v := 0; v < n; v++ {
		if !d.ND.Vicinity(graph.NodeID(v)).Contains(env.LMOf[v]) {
			t.Fatalf("precondition failed: node %d has no landmark in vicinity (topology too adversarial for the w.h.p. argument)", v)
		}
	}
	return env, d
}

// withSnapshot installs a freshly built exact snapshot into d.
func withSnapshot(t *testing.T, d *Disco) *Disco {
	t.Helper()
	snap, err := snapshot.Build(d.Env().G, d.ND.K, d.Env().Landmarks)
	if err != nil {
		t.Fatalf("snapshot build: %v", err)
	}
	d.ND.UseSnapshot(snap)
	return d
}

func routeOK(t *testing.T, g *graph.Graph, route []graph.NodeID, s, dst graph.NodeID) float64 {
	t.Helper()
	if len(route) == 0 || route[0] != s || route[len(route)-1] != dst {
		t.Fatalf("route endpoints wrong: %v (want %d..%d)", route, s, dst)
	}
	return g.PathLength(route) // panics on non-adjacent steps
}

func TestNDDiscoStretchBounds(t *testing.T) {
	env, d := testEnv(t, 1, 400, 1600)
	nd := d.ND
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(2)), env.N(), 300)
	for _, p := range pairs {
		s, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		short := nd.ShortestDist(s, dst)
		first := routeOK(t, env.G, nd.FirstRoute(s, dst, ShortcutNone), s, dst)
		if first > 5*short+eps {
			t.Fatalf("NDDisco first-packet stretch %v > 5 (pair %d->%d)", first/short, s, dst)
		}
		later := routeOK(t, env.G, nd.LaterRoute(s, dst, ShortcutNone), s, dst)
		if later > 3*short+eps {
			t.Fatalf("NDDisco later-packet stretch %v > 3 (pair %d->%d)", later/short, s, dst)
		}
	}
}

func TestDiscoStretchBound7(t *testing.T) {
	env, d := testEnv(t, 3, 400, 1600)
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(4)), env.N(), 300)
	for _, p := range pairs {
		s, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		short := d.ND.ShortestDist(s, dst)
		fb0, _ := d.Fallbacks()
		first := routeOK(t, env.G, d.FirstRoute(s, dst, ShortcutNone), s, dst)
		fb1, _ := d.Fallbacks()
		if fb1 != fb0 {
			continue // fallback used: Theorem 1 does not apply
		}
		if first > 7*short+eps {
			t.Fatalf("Disco first-packet stretch %v > 7 (pair %d->%d)", first/short, s, dst)
		}
		later := routeOK(t, env.G, d.LaterRoute(s, dst, ShortcutNone), s, dst)
		if later > 3*short+eps {
			t.Fatalf("Disco later-packet stretch %v > 3", later/short)
		}
	}
}

func TestDiscoStretchBoundsWeightedGraph(t *testing.T) {
	// Same bounds on a latency-weighted geometric graph, where stretch is
	// not capped by hop-count ratios (§5.2).
	g := topology.Geometric(rand.New(rand.NewSource(5)), 600, 8)
	env := static.NewEnv(g, 5)
	d := withSnapshot(t, NewDisco(env))
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(6)), env.N(), 300)
	for _, p := range pairs {
		s, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		if !d.ND.Vicinity(s).Contains(env.LMOf[s]) {
			continue // precondition of the Useful Fact
		}
		short := d.ND.ShortestDist(s, dst)
		fb0, _ := d.Fallbacks()
		first := routeOK(t, env.G, d.FirstRoute(s, dst, ShortcutNone), s, dst)
		if fb1, _ := d.Fallbacks(); fb1 != fb0 {
			continue
		}
		if first > 7*short+eps {
			t.Fatalf("weighted first-packet stretch %v > 7", first/short)
		}
		later := routeOK(t, env.G, d.LaterRoute(s, dst, ShortcutNone), s, dst)
		if later > 3*short+eps {
			t.Fatalf("weighted later-packet stretch %v > 3", later/short)
		}
	}
}

func TestHandshakeExactPath(t *testing.T) {
	// If s ∈ V(t), the later route must be exactly shortest.
	env, d := testEnv(t, 7, 300, 1200)
	nd := d.ND
	count := 0
	for s := 0; s < env.N() && count < 50; s++ {
		for dst := 0; dst < env.N() && count < 50; dst++ {
			if s == dst {
				continue
			}
			sv, dv := graph.NodeID(s), graph.NodeID(dst)
			if !nd.Vicinity(dv).Contains(sv) || nd.Vicinity(sv).Contains(dv) || env.IsLM[dv] {
				continue // want the asymmetric handshake case only
			}
			count++
			later := routeOK(t, env.G, nd.LaterRoute(sv, dv, ShortcutNone), sv, dv)
			if later != nd.ShortestDist(sv, dv) {
				t.Fatalf("handshake route %v != shortest %v", later, nd.ShortestDist(sv, dv))
			}
		}
	}
	if count == 0 {
		t.Skip("no asymmetric vicinity pairs found")
	}
}

func TestDirectCases(t *testing.T) {
	env, d := testEnv(t, 9, 200, 800)
	nd := d.ND
	// Self.
	r := nd.FirstRoute(5, 5, ShortcutNoPathKnowledge)
	if len(r) != 1 || r[0] != 5 {
		t.Fatal("self route wrong")
	}
	// Landmark destination: stretch 1.
	lm := env.Landmarks[0]
	src := graph.NodeID(1)
	if src == lm {
		src = 2
	}
	first := routeOK(t, env.G, nd.FirstRoute(src, lm, ShortcutNone), src, lm)
	if first != nd.ShortestDist(src, lm) {
		t.Fatalf("route to landmark %v != shortest %v", first, nd.ShortestDist(src, lm))
	}
	// Vicinity destination: stretch 1.
	var vdst graph.NodeID = graph.None
	for vs, i := nd.Vicinity(src), 0; i < vs.Size(); i++ {
		if w := vs.ID(i); w != src && !env.IsLM[w] {
			vdst = w
			break
		}
	}
	if vdst != graph.None {
		first = routeOK(t, env.G, nd.FirstRoute(src, vdst, ShortcutNone), src, vdst)
		if first != nd.ShortestDist(src, vdst) {
			t.Fatal("vicinity route not shortest")
		}
	}
}

func TestShortcutsNeverLengthen(t *testing.T) {
	env, d := testEnv(t, 11, 400, 1600)
	nd := d.ND
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(12)), env.N(), 150)
	for _, p := range pairs {
		s, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		base := routeOK(t, env.G, nd.FirstRoute(s, dst, ShortcutNone), s, dst)
		toDest := routeOK(t, env.G, nd.FirstRoute(s, dst, ShortcutToDestination), s, dst)
		shorter := routeOK(t, env.G, nd.FirstRoute(s, dst, ShortcutShorterPath), s, dst)
		npk := routeOK(t, env.G, nd.FirstRoute(s, dst, ShortcutNoPathKnowledge), s, dst)
		upDown := routeOK(t, env.G, nd.FirstRoute(s, dst, ShortcutUpDownStream), s, dst)
		pk := routeOK(t, env.G, nd.FirstRoute(s, dst, ShortcutPathKnowledge), s, dst)
		if toDest > base+eps {
			t.Fatalf("To-Destination lengthened route: %v > %v", toDest, base)
		}
		if shorter > base+eps {
			t.Fatalf("Shorter{} lengthened route: %v > %v", shorter, base)
		}
		if npk > toDest+eps || npk > shorter+eps {
			t.Fatalf("NoPathKnowledge must dominate its components")
		}
		if upDown > base+eps {
			t.Fatalf("Up-Down Stream lengthened route")
		}
		if pk > upDown+eps {
			t.Fatalf("PathKnowledge must dominate Up-Down Stream")
		}
		short := nd.ShortestDist(s, dst)
		if pk < short-eps || npk < short-eps {
			t.Fatalf("route shorter than shortest path?!")
		}
	}
}

func TestWalkToDestinationOptimal(t *testing.T) {
	// After a To-Destination splice, the suffix must be exactly shortest
	// from the splice node.
	env, d := testEnv(t, 13, 300, 1200)
	nd := d.ND
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(14)), env.N(), 100)
	for _, p := range pairs {
		s, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		route := nd.FirstRoute(s, dst, ShortcutToDestination)
		routeOK(t, env.G, route, s, dst)
		// Find the first node on the route whose vicinity contains dst;
		// from there the route must be shortest.
		for i, u := range route {
			if nd.Vicinity(u).Contains(dst) {
				suffix := route[i:]
				if env.G.PathLength(suffix) > nd.ShortestDist(u, dst)+eps {
					t.Fatalf("suffix after splice not shortest")
				}
				break
			}
		}
	}
}

func TestJoinPaths(t *testing.T) {
	p := dynamics.JoinPaths([]graph.NodeID{1, 2, 3}, []graph.NodeID{3, 4})
	want := []graph.NodeID{1, 2, 3, 4}
	if len(p) != len(want) {
		t.Fatalf("join %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("join %v want %v", p, want)
		}
	}
	// Backtrack collapse: 1,2,3 + 3,2,5 -> 1,2,5
	p = dynamics.JoinPaths([]graph.NodeID{1, 2, 3}, []graph.NodeID{3, 2, 5})
	want = []graph.NodeID{1, 2, 5}
	if len(p) != len(want) {
		t.Fatalf("backtrack join %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("backtrack join %v want %v", p, want)
		}
	}
}

func TestJoinPathsPanicsOnGap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	dynamics.JoinPaths([]graph.NodeID{1, 2}, []graph.NodeID{3, 4})
}

func TestDiscoFindGroupMember(t *testing.T) {
	env, d := testEnv(t, 15, 500, 2000)
	rng := rand.New(rand.NewSource(16))
	misses := 0
	for trial := 0; trial < 200; trial++ {
		s := graph.NodeID(rng.Intn(env.N()))
		dst := graph.NodeID(rng.Intn(env.N()))
		if s == dst {
			continue
		}
		w, ok := d.FindGroupMember(s, dst)
		if w == graph.None {
			t.Fatal("no vicinity members at all")
		}
		if !ok {
			misses++
			continue
		}
		if !d.HasAddress(w, dst) {
			t.Fatal("FindGroupMember returned ok but no address")
		}
		if !d.ND.Vicinity(s).Contains(w) {
			t.Fatal("w must be in V(s)")
		}
	}
	// With exact estimates misses should be extremely rare.
	if misses > 4 {
		t.Errorf("too many group-member misses with exact estimates: %d/200", misses)
	}
}

func TestDiscoFallbackUnderError(t *testing.T) {
	// With ±60% estimate error, routing must still complete via the
	// landmark-database fallback (§4.4 "routing could operate correctly by
	// simply using name resolution on the landmark database").
	g := topology.Gnm(rand.New(rand.NewSource(17)), 400, 1600)
	est := make([]float64, 400)
	rng := rand.New(rand.NewSource(18))
	for i := range est {
		est[i] = 400 * (1 + (rng.Float64()*2-1)*0.6)
	}
	env := static.NewEnv(g, 17, static.WithNEst(est))
	d := withSnapshot(t, NewDisco(env))
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(19)), 400, 200)
	for _, p := range pairs {
		s, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		route := d.FirstRoute(s, dst, ShortcutNoPathKnowledge)
		routeOK(t, env.G, route, s, dst) // must still deliver
	}
}

func TestStateBoundDisco(t *testing.T) {
	env, d := testEnv(t, 21, 1024, 4096)
	ndE, dE, _, dBreak := d.StateVectors()
	bound := 14 * math.Sqrt(1024*math.Log2(1024)) // generous constant
	for v := 0; v < env.N(); v++ {
		if float64(dE[v]) > bound {
			t.Fatalf("Disco state at %d is %d > bound %.0f (breakdown %+v)",
				v, dE[v], bound, dBreak[v])
		}
		if ndE[v] > dE[v] {
			t.Fatalf("NDDisco state cannot exceed Disco state")
		}
	}
}

func TestStateBreakdownConsistency(t *testing.T) {
	env, d := testEnv(t, 23, 256, 1024)
	ndE, dE, ndB, dB := d.StateVectors()
	totalRes := 0
	for v := 0; v < env.N(); v++ {
		if ndB[v].Total() != ndE[v] || dB[v].Total() != dE[v] {
			t.Fatal("breakdown totals inconsistent")
		}
		if ndB[v].GroupAddrs != 0 || ndB[v].OverlayLinks != 0 {
			t.Fatal("NDDisco must not carry Disco-only state")
		}
		if ndB[v].LandmarkRoutes != len(env.Landmarks) {
			t.Fatal("landmark routes wrong")
		}
		if ndB[v].VicinityRoutes != d.K {
			t.Fatal("vicinity routes wrong")
		}
		if ndB[v].Resolution > 0 && !env.IsLM[v] {
			t.Fatal("non-landmark storing resolution entries")
		}
		totalRes += ndB[v].Resolution
	}
	if totalRes != env.N() {
		t.Fatalf("resolution entries total %d want n=%d", totalRes, env.N())
	}
}

func TestVicinitySizeOverride(t *testing.T) {
	env, _ := testEnv(t, 25, 200, 800)
	nd := withSnapshot(t, NewDisco(env, WithNDOptions(WithK(17)))).ND
	if nd.Vicinity(3).Size() != 17 {
		t.Fatalf("K override ignored: %d", nd.Vicinity(3).Size())
	}
}

func TestVicinityDefaultK(t *testing.T) {
	env, _ := testEnv(t, 27, 300, 1200)
	nd := NewNDDisco(env)
	if nd.K != vicinity.DefaultK(300) {
		t.Fatalf("default K %d want %d", nd.K, vicinity.DefaultK(300))
	}
}

func TestClosestMemberSelection(t *testing.T) {
	// The §4.4 variant must (a) keep all guarantees and (b) never pick a
	// farther w than necessary among full-prefix members.
	g := topology.Gnm(rand.New(rand.NewSource(61)), 500, 2000)
	env := static.NewEnv(g, 61)
	dLongest := withSnapshot(t, NewDisco(env, WithSeed(61)))
	dClosest := withSnapshot(t, NewDisco(env, WithSeed(61), WithClosestMember()))
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(62)), 500, 200)
	sumL, sumC := 0.0, 0.0
	for _, p := range pairs {
		s, t2 := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		short := dLongest.ND.ShortestDist(s, t2)
		if short == 0 {
			continue
		}
		rl := routeOK(t, g, dLongest.FirstRoute(s, t2, ShortcutNone), s, t2)
		rc := routeOK(t, g, dClosest.FirstRoute(s, t2, ShortcutNone), s, t2)
		sumL += rl / short
		sumC += rc / short
		// Both selections must satisfy Theorem 1 when no fallback fired.
		fb, _ := dClosest.Fallbacks()
		if fb == 0 && rc > 7*short+eps {
			t.Fatalf("closest-member stretch %v > 7", rc/short)
		}
		// The chosen w under closest-mode is never farther than under
		// longest-mode when both hold the address and share the prefix
		// requirement.
		wl, okL := dLongest.FindGroupMember(s, t2)
		wc, okC := dClosest.FindGroupMember(s, t2)
		if okL && okC {
			vs := dLongest.ND.Vicinity(s)
			if dc, dl := vs.Dist(vs.Find(wc)), vs.Dist(vs.Find(wl)); dc > dl+eps {
				t.Fatalf("closest-member picked farther w: %v vs %v", dc, dl)
			}
		}
	}
	t.Logf("mean first stretch: longest-prefix %.4f, closest-member %.4f",
		sumL/float64(len(pairs)), sumC/float64(len(pairs)))
}

func TestMeanStretchReasonable(t *testing.T) {
	// Sanity: mean first-packet stretch with NoPathKnowledge on a random
	// graph should be low (paper Fig. 6: 1.18 for GNM-16384).
	env, d := testEnv(t, 29, 512, 2048)
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(30)), env.N(), 200)
	total, count := 0.0, 0
	for _, p := range pairs {
		s, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		short := d.ND.ShortestDist(s, dst)
		if short == 0 {
			continue
		}
		l := env.G.PathLength(d.FirstRoute(s, dst, ShortcutNoPathKnowledge))
		total += l / short
		count++
	}
	mean := total / float64(count)
	if mean > 1.6 {
		t.Errorf("mean first-packet stretch %v implausibly high", mean)
	}
	if mean < 1 {
		t.Errorf("mean stretch < 1?!")
	}
}

// TestDiscoFirstRouteLetsHolderShortcut is the property the first-packet
// composition must keep: the node w that holds t's address forwards as an
// NDDisco source — its own direct cases and shortcut walk — before s's
// joint collapse and walk run over the joined route, so the flat-name
// first packet is never longer than s ⇝ w followed by w's own
// forward-leg route. (A composition that joins w's unshortcut landmark
// leg first can collapse w out of the route and then miss w's shortcut:
// gnm n=2048 seed 7, 1564 → 158 via w=286 took 7 hops instead of 6.)
func TestDiscoFirstRouteLetsHolderShortcut(t *testing.T) {
	const n, seed = 2048, 7
	g := topology.GnmAvgDeg(rand.New(rand.NewSource(seed)), n, 8)
	env := static.NewEnv(g, seed)
	d := withSnapshot(t, NewDisco(env, WithSeed(seed)))
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(seed+1)), n, 3000)
	pairs = append(pairs, metrics.Pair{Src: 1564, Dst: 158})
	viaHolder := 0
	for _, p := range pairs {
		s, dst := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		if env.IsLM[dst] || d.ND.VicinityContains(s, dst) || d.HasAddress(s, dst) {
			continue // s addresses t itself: pure NDDisco
		}
		w, ok := d.FindGroupMember(s, dst)
		if !ok {
			continue // resolution fallback
		}
		viaHolder++
		vs := d.ND.Vicinity(s)
		toW := vs.Dist(vs.Find(w))
		for _, sc := range AllShortcuts {
			got := routeOK(t, g, d.FirstRoute(s, dst, sc), s, dst)
			bound := toW + g.PathLength(d.ND.FirstRoute(w, dst, sc.withoutReverse()))
			if got > bound+eps {
				t.Fatalf("%v: Disco first route %d->%d via w=%d has length %v > d(s,w)+|w's route| = %v",
					sc, s, dst, w, got, bound)
			}
		}
	}
	if viaHolder < len(pairs)/2 {
		t.Fatalf("only %d of %d pairs took the group-member branch", viaHolder, len(pairs))
	}
}

// TestRouteBeforeUseSnapshotPanics pins the harness invariant: routing
// without an installed snapshot panics naming the missing call, while
// state-only accounting needs none.
func TestRouteBeforeUseSnapshotPanics(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(31)), 64, 256)
	d := NewDisco(static.NewEnv(g, 31))
	d.StateVectors()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "UseSnapshot") {
			t.Fatalf("want a panic naming UseSnapshot, got %q", msg)
		}
	}()
	d.Fork().FirstRoute(1, 2, ShortcutNone)
}

// TestForkRepairedIsScratchFree: the serve plane forks once per pooled
// slot per epoch, so a fork must not pay for a Dijkstra scratch it never
// uses — routing allocates none, the first ShortestDist does — nor, on an
// exact snapshot, for a compact window cache.
func TestForkRepairedIsScratchFree(t *testing.T) {
	_, d := testEnv(t, 33, 200, 800)
	f := d.ND.ForkRepaired(d.ND.Snapshot())
	f.RepairedFirstRoute(3, 150)
	f.RepairedLaterRoute(3, 150)
	if f.dest != nil {
		t.Fatal("routing on a repaired fork allocated a destination scratch")
	}
	if n := f.rd.Cached(); n != 0 {
		t.Fatalf("routing on an exact fork cached %d compact windows", n)
	}
	if f.ShortestDist(3, 150) != d.ND.ShortestDist(3, 150) {
		t.Fatal("fork and original disagree on d(3,150)")
	}
}

// TestForkRejectsForeignScratch: a destination scratch over any graph but
// the snapshot's would silently answer with that graph's distances.
func TestForkRejectsForeignScratch(t *testing.T) {
	env, d := testEnv(t, 34, 64, 256)
	d.ND.ForkWith(pathtree.NewLazy(env.G)) // the snapshot's own graph is fine
	other := topology.Gnm(rand.New(rand.NewSource(35)), 64, 256)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "different graph") {
			t.Fatalf("want a panic naming the graph mismatch, got %q", msg)
		}
	}()
	d.ForkWith(pathtree.NewLazy(other))
}
