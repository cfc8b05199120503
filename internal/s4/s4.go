// Package s4 implements the S4 baseline [34] (§3, §4.2 "Comparison with
// S4", §5): a distributed adaptation of Thorup–Zwick's Sec. 3 scheme [44]
// with uniform-random landmarks. Unlike NDDisco's fixed-size vicinities, S4
// nodes store their *cluster* C(v) = {w : d(v,w) < d(w, l_w)} — all nodes
// strictly closer to v than to their own landmark — which has no per-node
// bound: on hub-centered topologies clusters explode to Θ(n) (the paper's
// footnote-6 tree and the Internet maps in Fig. 2). S4 is name-dependent;
// it resolves names through a consistent-hashing database on the landmarks,
// which is why its first packets can have unbounded stretch (Fig. 3).
package s4

import (
	"math"

	"disco/internal/dynamics"
	"disco/internal/graph"
	"disco/internal/parallel"
	"disco/internal/pathtree"
	"disco/internal/resolve"
	"disco/internal/snapshot"
	"disco/internal/static"
)

// S4 is the converged S4 data plane over a shared environment (same
// landmark set and names as Disco, making comparisons direct). Like
// core.NDDisco it reads landmark trees — the same trees Disco shares —
// from one shared immutable snapshot (UseSnapshot), built from scratch or
// repaired after link events, with a per-fork Dijkstra scratch for
// destination-rooted queries. Routing before UseSnapshot panics (a harness
// invariant: whoever constructs an S4 must install one); the state
// accounting (ClusterSizesAll, StateVectors) needs none.
type S4 struct {
	Env *static.Env
	DB  *resolve.DB

	snap *snapshot.Snapshot
	dest *pathtree.Lazy // allocated on first use
}

var _ dynamics.Router = (*S4)(nil)

// New builds the S4 instance. vnodes is the number of hash functions in the
// resolution database (1 matches [34]).
func New(env *static.Env, vnodes int) *S4 {
	return &S4{Env: env, DB: resolve.New(env.Landmarks, env.NameOf, vnodes)}
}

// UseSnapshot installs the shared immutable snapshot s (and every future
// fork) reads landmark trees from.
func (s *S4) UseSnapshot(sn *snapshot.Snapshot) { s.snap, s.dest = sn, nil }

// snapshot returns the installed snapshot, panicking when there is none:
// routing before UseSnapshot is a harness bug, not an input error.
func (s *S4) snapshot() *snapshot.Snapshot {
	if s.snap == nil {
		panic("s4: S4 has no route state: call UseSnapshot before routing")
	}
	return s.snap
}

// Fork returns a concurrency view of s for one worker of a parallel
// sweep: the environment, resolution DB and snapshot are shared read-only;
// only the destination-tree scratch is private. Forked instances route
// concurrently and return exactly the routes the original would.
func (s *S4) Fork() *S4 { return s.ForkRepaired(s.snap, nil) }

// ForkWith is Fork with a caller-supplied destination-tree scratch shared
// between the protocol forks of one worker (see core.NDDisco.ForkWith).
func (s *S4) ForkWith(dest *pathtree.Lazy) *S4 { return s.ForkRepaired(s.snap, dest) }

// ForkRepaired returns an S4 routing view over the repaired snapshot rep.
// A non-nil dest (shared with the other protocol forks of the same
// worker) must have been created over rep.Graph(), the failed topology;
// one over any other graph would answer with that graph's distances, so it
// panics (a harness invariant).
func (s *S4) ForkRepaired(rep *snapshot.Snapshot, dest *pathtree.Lazy) *S4 {
	if dest != nil && rep != nil && dest.Graph() != rep.Graph() {
		panic("s4: destination scratch was built over a different graph than the snapshot's")
	}
	return &S4{Env: s.Env, DB: s.DB, snap: rep, dest: dest}
}

// destTree returns the fork's Dijkstra scratch bound to root, allocating
// it over the snapshot's (possibly failed) topology on first use.
func (s *S4) destTree(root graph.NodeID) *pathtree.Lazy {
	if s.dest == nil {
		s.dest = pathtree.NewLazy(s.snapshot().Graph())
	}
	s.dest.Bind(root)
	return s.dest
}

// ShortestDist returns d(a,b) for stretch computation.
func (s *S4) ShortestDist(a, b graph.NodeID) float64 { return s.destTree(b).Dist(a) }

// LaterRoute returns the packet route once the source knows t's label
// (l_t plus the first hop out of l_t): direct if t ∈ C(s) or either end is
// a landmark, else toward l_t with To-Destination shortcutting. Worst-case
// stretch 3. Must-deliver (the topology must be connected); on failed
// topologies use AppendRoute.
func (s *S4) LaterRoute(src, t graph.NodeID) []graph.NodeID {
	return dynamics.MustDeliver(s.route(src, t, false))
}

// FirstRoute returns the first packet's route: S4 must first resolve t's
// name through the consistent-hashing database on the landmarks, so the
// packet travels s ⇝ owner(h(t)) ⇝ t. The resolution detour is why S4's
// first-packet stretch is unbounded (Fig. 3). Must-deliver, like
// LaterRoute.
func (s *S4) FirstRoute(src, t graph.NodeID) []graph.NodeID {
	return dynamics.MustDeliver(s.route(src, t, true))
}

// AppendRoute is the dynamics.Router call: it appends the first
// (later=false) or later packet's route to dst. ok=false reports src and t
// separated on the (repaired) snapshot's topology, or a first packet whose
// resolution owner src cannot reach: a name that cannot be resolved makes
// the packet undeliverable — the partition cost Fig. 3's
// unbounded-first-stretch discussion prices in. On ok=false dst is
// returned unextended.
func (s *S4) AppendRoute(dst []graph.NodeID, src, t graph.NodeID, later bool) ([]graph.NodeID, bool) {
	p, ok := s.route(src, t, !later)
	return append(dst, p...), ok
}

// route is S4's forwarding rule, defined once over the installed
// snapshot. The tables are the Thorup–Zwick definitions evaluated on the
// snapshot's topology — landmark trees from the snapshot, clusters
// C(v) = {w : d(w,v) < d(w, l_w)} under its distances and the re-homed
// landmark assignment; the per-pair destination Dijkstra that already
// funds the stretch denominator supplies those distances, so cluster
// checks stay exact without any global recomputation. Direct if either
// end is a landmark (landmarks reach everyone via the landmark flood's
// reverse tree) or t ∈ C(src); else the packet heads for a landmark — the
// resolution owner on a first packet, which must reach it to learn t's
// label; l_t afterwards, peeling off to the exact path at the first node
// whose cluster contains t (To-Destination, S4's built-in shortcut; a
// landmark always diverts, so the walk ends at l_t at the latest).
func (s *S4) route(src, t graph.NodeID, first bool) ([]graph.NodeID, bool) {
	if src == t {
		return []graph.NodeID{src}, true
	}
	snap := s.snapshot()
	d, lm, in := s.cluster(t)
	if math.IsInf(d.Dist(src), 1) {
		return nil, false
	}
	knows := func(u graph.NodeID) bool { return s.Env.IsLM[u] || in(u) }
	if s.Env.IsLM[t] || knows(src) {
		return d.PathFrom(src), true
	}
	// src is outside t's cluster radius, so the radius is finite and lm is
	// a real landmark.
	if first {
		lm = s.DB.OwnerOf(s.Env.HashOf(t))
	}
	if !snap.Reaches(lm, src) {
		return nil, false
	}
	toLM := snap.PathFrom(lm, src)
	if first {
		// The figures count a query that bounces straight back off the
		// owner (…x,owner,x…) as turning at x; a later packet's bounce
		// off an en-route landmark is walked in full.
		return dynamics.AppendJoin(toLM, 0, d.PathFrom(lm)), true
	}
	i := 0
	for !knows(toLM[i]) {
		i++
	}
	return append(toLM[:i], d.PathFrom(toLM[i])...), true
}

// cluster binds the destination tree d to t and returns it with t's
// landmark on the snapshot's topology — the nearest one, ties to the lowest
// ID (the deterministic re-registration rule); graph.None when t's
// component lost every landmark — and the membership test u ↦ t ∈ C(u),
// d(u,t) < d(t, l_t) under d's distances. Both are bounded queries: they
// settle t's tree out to l_t's level and no further.
func (s *S4) cluster(t graph.NodeID) (d *pathtree.Lazy, lm graph.NodeID, in func(graph.NodeID) bool) {
	d = s.destTree(t)
	lm, radius := d.Nearest(s.Env.IsLM)
	return d, lm, func(u graph.NodeID) bool { return u == t || d.Closer(u, radius) }
}

// ClusterSizesAll returns |C(v)| for every node using the dual formulation:
// each node w settles its ball {v : d(w,v) < d(w, l_w)} with a
// radius-bounded Dijkstra and contributes to those clusters. Total work is
// proportional to total cluster state (what S4 actually stores). The
// per-source balls run on the parallel worker pool with per-worker tally
// arrays; integer merges are order-independent, so the result is identical
// at any worker count.
func (s *S4) ClusterSizesAll() []int {
	n := s.Env.N()
	g := s.Env.G
	g.Finalize()
	type tally struct {
		ss     *graph.SSSP
		counts []int
	}
	parts := parallel.RunGather(n,
		func() *tally { return &tally{ss: graph.NewSSSP(g), counts: make([]int, n)} },
		func(t *tally, w int) {
			t.ss.RunRadius(graph.NodeID(w), s.Env.LMDist[w])
			for _, v := range t.ss.Order() {
				if v != graph.NodeID(w) {
					t.counts[v]++
				}
			}
		})
	out := make([]int, n)
	for _, p := range parts {
		parallel.SumInto(out, p.counts)
	}
	return out
}

// StateVectors returns per-node S4 state entry counts and their
// breakdowns, mirroring the §5.2 accounting used for Disco: landmark
// routes + cluster routes + forwarding labels + resolution share.
// clusterSizes comes from ClusterSizesAll (or a sampled equivalent).
func (s *S4) StateVectors(clusterSizes []int) (entries []int, breakdowns []static.StateBreakdown) {
	n := s.Env.N()
	nLM := len(s.Env.Landmarks)
	resLoad := s.DB.Load(n, s.Env.Hashes)
	entries = make([]int, n)
	breakdowns = make([]static.StateBreakdown, n)
	for v := 0; v < n; v++ {
		labels := s.Env.G.Degree(graph.NodeID(v))
		if m := nLM + clusterSizes[v]; labels > m {
			labels = m
		}
		b := static.StateBreakdown{
			LandmarkRoutes: nLM,
			VicinityRoutes: clusterSizes[v],
			LabelMappings:  labels,
			Resolution:     resLoad[v],
		}
		entries[v], breakdowns[v] = b.Total(), b
	}
	return entries, breakdowns
}
