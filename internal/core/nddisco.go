// Package core implements the paper's primary contribution: NDDisco, the
// name-dependent distributed compact routing protocol (§4.2), and Disco,
// the full name-independent protocol (§4.4) layered on NDDisco, the
// landmark name-resolution database (§4.3), sloppy groups and the
// dissemination overlay.
//
// The types here model the *converged data plane*: given a static.Env (the
// paper's static simulator, §5.1) they materialize exactly the routes the
// distributed protocol forwards along, including every shortcutting
// heuristic of Fig. 6. The event-driven control plane that builds the same
// state dynamically lives in internal/pathvector and internal/overlay, and
// is cross-validated against this package.
package core

import (
	"fmt"
	"slices"

	"disco/internal/dynamics"
	"disco/internal/graph"
	"disco/internal/pathtree"
	"disco/internal/snapshot"
	"disco/internal/static"
	"disco/internal/vicinity"
)

// NDDisco is the converged name-dependent protocol instance: landmark
// routes plus fixed-size vicinities. The source must know the destination's
// address for routing (Disco removes that assumption).
//
// All route state is read from one shared immutable snapshot (UseSnapshot)
// where it lies: the stored window in the exact regime, the encoded window
// in place in the compact one. No route decodes a window, and a warm route
// allocates nothing in either. Forks share the snapshot by pointer and own
// scratch only: the walk's route buffers and, from first use, a Dijkstra
// scratch for destination-rooted queries. Vicinity and VicinityContains
// read the snapshot directly, so they stay safe for concurrent use.
// Every read that needs the snapshot panics before UseSnapshot — a harness
// invariant: whoever constructs an NDDisco (eval, bench/, the root library,
// the root benchmarks) must build and install one; state-only accounting
// (StateVectors) needs none.
type NDDisco struct {
	Env *static.Env
	K   int // vicinity size |V(v)|, Θ(sqrt(n log n))

	snap *snapshot.Snapshot
	dest *pathtree.Lazy // per-fork scratch for destination-rooted queries

	// The walk's scratch: the forest descent t ⇝ landmark, the backing
	// buffer the owned-route methods copy their routes out of, and Up-Down
	// Stream's segment lengths and the route tail a splice sets aside.
	chain, out, tail []graph.NodeID
	segLen           []float64
}

// NDOption customizes NewNDDisco.
type NDOption func(*NDDisco)

// WithK overrides the vicinity size (used by the vicinity-size ablation).
func WithK(k int) NDOption { return func(r *NDDisco) { r.K = k } }

// NewNDDisco builds the converged NDDisco data plane over env. The instance
// holds no route state of its own; install a snapshot with UseSnapshot
// before routing.
func NewNDDisco(env *static.Env, opts ...NDOption) *NDDisco {
	r := &NDDisco{Env: env, K: vicinity.DefaultK(env.N())}
	for _, o := range opts {
		o(r)
	}
	return r
}

// UseSnapshot installs the shared immutable snapshot r (and every future
// fork) reads vicinities and landmark trees from. The snapshot must have
// been built over the same graph with r's vicinity size.
func (r *NDDisco) UseSnapshot(s *snapshot.Snapshot) {
	want := r.K
	if n := r.Env.N(); want > n {
		want = n
	}
	if s.K() != want {
		panic(fmt.Sprintf("core: snapshot K=%d does not match NDDisco K=%d", s.K(), want))
	}
	r.snap, r.dest = s, nil
}

// snapshot returns the installed snapshot, panicking when there is none:
// routing before UseSnapshot is a harness bug, not an input error.
func (r *NDDisco) snapshot() *snapshot.Snapshot {
	if r.snap == nil {
		panic("core: NDDisco has no route state: call UseSnapshot before routing")
	}
	return r.snap
}

// fork is the one fork constructor: a view of r over snap that shares all
// converged read-only state and owns at most a destination-tree scratch.
// Routes are pure functions of (Env, snapshot), so a fork returns exactly
// the routes the original would on the same snapshot. A dest built over
// any graph but snap's would answer with that graph's distances, so it
// panics (a harness invariant).
func (r *NDDisco) fork(snap *snapshot.Snapshot, dest *pathtree.Lazy) *NDDisco {
	if dest != nil && snap != nil && dest.Graph() != snap.Graph() {
		panic("core: destination scratch was built over a different graph than the snapshot's")
	}
	return &NDDisco{Env: r.Env, K: r.K, snap: snap, dest: dest}
}

// Fork returns a concurrency view of r for one worker of a parallel sweep.
func (r *NDDisco) Fork() *NDDisco { return r.fork(r.snap, nil) }

// ForkWith is Fork with a caller-supplied destination-tree scratch, letting
// the protocol forks of one worker (e.g. Disco and S4 routing the same
// sampled pairs) share each other's destination Dijkstra runs.
func (r *NDDisco) ForkWith(dest *pathtree.Lazy) *NDDisco { return r.fork(r.snap, dest) }

// ForkRepaired returns a routing view of r over the repaired snapshot rep:
// the environment's immutable parts (names, landmark identities) are
// shared and rep supplies vicinities and landmark trees. The fork is
// scratch-free until its first ShortestDist (the serve plane forks once
// per pooled slot per epoch and never asks for one).
func (r *NDDisco) ForkRepaired(rep *snapshot.Snapshot) *NDDisco { return r.fork(rep, nil) }

// Vicinity returns V(v) from the shared snapshot.
func (r *NDDisco) Vicinity(v graph.NodeID) *vicinity.Window { return r.snapshot().Vicinity(v) }

// VicinityContains reports w ∈ V(v) without materializing the window in the
// compact snapshot regime — the guard the forwarding loops probe once per
// hop, where the common answer is "no".
func (r *NDDisco) VicinityContains(v, w graph.NodeID) bool {
	return r.snapshot().VicinityContains(v, w)
}

// destTree returns the fork's Dijkstra scratch bound to root, allocating
// it over the snapshot's (possibly failed) topology on first use.
func (r *NDDisco) destTree(root graph.NodeID) *pathtree.Lazy {
	if r.dest == nil {
		r.dest = pathtree.NewLazy(r.snapshot().Graph())
	}
	r.dest.Bind(root)
	return r.dest
}

// ShortestDist returns the true shortest-path distance d(s,t) on the
// snapshot's topology, used as the stretch denominator.
func (r *NDDisco) ShortestDist(s, t graph.NodeID) float64 { return r.destTree(t).Dist(s) }

// RouteLen returns the weighted length of a node path.
func (r *NDDisco) RouteLen(p []graph.NodeID) float64 { return r.Env.G.PathLength(p) }

// FirstRoute returns the route of a flow's first packet from s to t under
// the given shortcut heuristic, assuming s knows t's address (the
// name-dependent model). Worst-case stretch 5 (§4.2, [44]). The topology
// must be connected (must-deliver); on failed topologies use
// RepairedFirstRoute.
func (r *NDDisco) FirstRoute(s, t graph.NodeID, sc Shortcut) []graph.NodeID {
	return dynamics.MustDeliver(r.route(s, t, sc, false))
}

// LaterRoute returns the route of packets after the first: if s ∈ V(t) the
// destination has informed s of the exact shortest path (the handshake of
// [44] §4); otherwise the packet keeps using the landmark route. Worst-case
// stretch 3 (§4.5). Must-deliver, like FirstRoute.
func (r *NDDisco) LaterRoute(s, t graph.NodeID, sc Shortcut) []graph.NodeID {
	return dynamics.MustDeliver(r.route(s, t, sc, true))
}

// RepairedFirstRoute is FirstRoute under To-Destination shortcutting that
// reports an undeliverable destination (partitioned away, or in a
// component that lost all its landmarks) as ok=false instead of panicking:
// delivery ratio, not a crash, is the observable on failed topologies.
func (r *NDDisco) RepairedFirstRoute(s, t graph.NodeID) ([]graph.NodeID, bool) {
	return r.route(s, t, ShortcutToDestination, false)
}

// RepairedLaterRoute is RepairedFirstRoute after the handshake.
func (r *NDDisco) RepairedLaterRoute(s, t graph.NodeID) ([]graph.NodeID, bool) {
	return r.route(s, t, ShortcutToDestination, true)
}

// AppendRoute is the dynamics.Router call: it appends the repaired route
// s ⇝ t under To-Destination shortcutting to dst and reports
// deliverability, the allocation-free form of RepairedFirstRoute
// (later=false) and RepairedLaterRoute. With dst and the fork's scratch at
// steady-state capacity, a call performs no heap allocation. On ok=false
// dst is returned unextended.
func (r *NDDisco) AppendRoute(dst []graph.NodeID, s, t graph.NodeID, later bool) ([]graph.NodeID, bool) {
	return r.appendRoute(dst, s, t, ShortcutToDestination, later)
}

var (
	_ dynamics.Router = (*NDDisco)(nil)
	_ dynamics.Router = (*Disco)(nil)
)

// route is appendRoute as a fresh copy the caller owns.
func (r *NDDisco) route(s, t graph.NodeID, sc Shortcut, later bool) ([]graph.NodeID, bool) {
	return r.owned(r.appendRoute(r.out[:0], s, t, sc, later))
}

// owned returns a route appended behind r.out[:0] as a fresh copy the
// caller owns, and keeps its storage as the fork's backing buffer.
func (r *NDDisco) owned(route []graph.NodeID, ok bool) ([]graph.NodeID, bool) {
	r.out = route[:0]
	if !ok {
		return nil, false
	}
	return slices.Clone(route), true
}

// appendRoute is NDDisco's forwarding rule (§4.2), defined once over the
// installed snapshot — built from scratch or repaired after link events;
// the repaired snapshot IS the post-re-convergence data plane, so the same
// walk serves both. Direct if s knows a shortest path outright (s == t, t
// a landmark, t ∈ V(s), or — later packets — s ∈ V(t), where t has
// installed the exact reverse path); else the landmark leg s ⇝ l_t ⇝ t
// with the shortcut heuristics of sc applied en route. Only snapshot state
// is consulted — never the explicit-route addresses in static.Env, which a
// link event invalidates — and ok=false reports that no route exists, with
// dst unextended. Each window is searched once: a hit's path is read off
// its parent column, in place on a compact snapshot.
func (r *NDDisco) appendRoute(dst []graph.NodeID, s, t graph.NodeID, sc Shortcut, later bool) ([]graph.NodeID, bool) {
	snap := r.snapshot()
	if s == t {
		return append(dst, s), true
	}
	if r.Env.IsLM[t] {
		if !snap.Reaches(t, s) {
			return dst, false
		}
		return snap.AppendPathFrom(dst, t, s), true
	}
	if out, ok := snap.AppendVicinityPath(dst, s, t); ok {
		return out, true
	}
	base := len(dst)
	if later {
		if out, ok := snap.AppendVicinityPath(dst, t, s); ok {
			slices.Reverse(out[base:]) // t ⇝ s, traveled s → t
			return out, true
		}
	}
	dst, ok := r.appendLeg(dst, r.rehomeLandmark(t), s, t, sc)
	if !ok || !sc.usesReverse() {
		return dst, ok
	}
	// The reversed t → s route as traveled s → t goes through s's landmark
	// instead; valid because the graph is undirected (§6 reversibility
	// assumption). It is laid after the forward leg and kept if shorter.
	mid := len(dst)
	dst, ok = r.appendLeg(dst, r.rehomeLandmark(s), s, t, sc)
	if ok && r.RouteLen(dst[mid:]) < r.RouteLen(dst[base:mid]) {
		return append(dst[:base], dst[mid:]...), true
	}
	return dst[:mid], true
}

// appendLeg appends the landmark leg s ⇝ lm ⇝ t over lm's shortest-path
// tree, walked under sc, to dst — or reports false, dst unextended, when
// lm (None for a component that lost every landmark) does not reach both
// ends. The leg joins two paths on the tree: the up-chain from s, then the
// up-chain from t reversed (dynamics.AppendJoin).
func (r *NDDisco) appendLeg(dst []graph.NodeID, lm, s, t graph.NodeID, sc Shortcut) ([]graph.NodeID, bool) {
	snap := r.snap
	if lm == graph.None || !snap.Reaches(lm, s) || !snap.Reaches(lm, t) {
		return dst, false
	}
	base := len(dst)
	dst = snap.AppendPathFrom(dst, lm, s)
	r.chain = snap.AppendPathFrom(r.chain[:0], lm, t)
	slices.Reverse(r.chain)
	return r.walk(dynamics.AppendJoin(dst, base, r.chain), base, t, sc), true
}

// rehomeLandmark returns the landmark the control plane homes t to: t's
// original landmark while its tree reaches t, else the lowest-ID landmark
// whose repaired tree does (the deterministic re-registration rule), or
// graph.None when t's component lost every landmark — the undeliverable
// case.
func (r *NDDisco) rehomeLandmark(t graph.NodeID) graph.NodeID {
	if lm := r.Env.LMOf[t]; r.snap.Reaches(lm, t) {
		return lm
	}
	best := graph.None
	for _, lm := range r.Env.Landmarks {
		if (best == graph.None || lm < best) && r.snap.Reaches(lm, t) {
			best = lm
		}
	}
	return best
}

// walk simulates the packet traveling along the route dst[base:] toward t,
// applying the configured shortcut heuristics at every node it passes
// (§4.2), and returns dst with the route rewritten. The caller has probed
// dst[base]'s window for t and missed — every route walked starts at a
// node whose direct case failed — so To-Destination starts one node on;
// Up-Down Stream splices at dst[base] too.
func (r *NDDisco) walk(dst []graph.NodeID, base int, t graph.NodeID, sc Shortcut) []graph.NodeID {
	if sc.usesUpDown() {
		for i := base; i < len(dst)-1; i++ {
			dst = r.spliceUpDown(dst, i)
		}
		return dst
	}
	if !sc.usesToDest() {
		return dst
	}
	// To-Destination: follow the direct path as soon as any node knows one.
	// Nodes on a shortest path to t also have t in their vicinities with
	// consistent sub-paths, so no further improvement is possible after the
	// splice. The lookup materializes no window, and a miss, the per-node
	// common case, appends nothing.
	for i := base + 1; i < len(dst)-1; i++ {
		if out, ok := r.snap.AppendVicinityPath(dst[:i], dst[i], t); ok {
			return out
		}
	}
	return dst
}

// spliceUpDown implements Up-Down Stream at position i: the node inspects
// the listed route and splices in its vicinity path to the farthest
// downstream route node it can reach more cheaply.
func (r *NDDisco) spliceUpDown(cur []graph.NodeID, i int) []graph.NodeID {
	g, u := r.Env.G, cur[i]
	// Prefix sums of the remaining route for O(1) segment lengths.
	segLen := append(r.segLen[:0], 0)
	for j := i + 1; j < len(cur); j++ {
		segLen = append(segLen, segLen[j-i-1]+g.EdgeWeight(cur[j-1], cur[j]))
	}
	r.segLen = segLen
	const eps = 1e-12
	for j := len(cur) - 1; j > i; j-- {
		d, ok := r.snap.VicinityDist(u, cur[j])
		if !ok {
			continue
		}
		if d < segLen[j-i]-eps {
			// The splice is laid over cur from i on, so the tail after
			// cur[j] is set aside first.
			r.tail = append(r.tail[:0], cur[j+1:]...)
			out, _ := r.snap.AppendVicinityPath(cur[:i], u, cur[j])
			return append(out, r.tail...)
		}
		// The farthest known node is already optimal; nearer known nodes
		// lie on consistent shortest sub-paths and cannot improve more.
		return cur
	}
	return cur
}
