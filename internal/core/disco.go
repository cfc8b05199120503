package core

import (
	"fmt"
	"math/rand"

	"disco/internal/dynamics"
	"disco/internal/graph"
	"disco/internal/names"
	"disco/internal/overlay"
	"disco/internal/pathtree"
	"disco/internal/resolve"
	"disco/internal/sloppy"
	"disco/internal/snapshot"
	"disco/internal/static"
	"disco/internal/vicinity"
)

// Disco is the full name-independent protocol (§4.4): NDDisco plus the
// landmark name-resolution database (§4.3) and sloppy-group address tables
// maintained through the dissemination overlay. A source needs only the
// destination's flat name.
type Disco struct {
	ND        *NDDisco
	DB        *resolve.DB  // consistent-hashing resolution over landmarks
	View      *sloppy.View // per-node grouping opinions (handles estimate error)
	Net       *overlay.Net // dissemination overlay (state accounting, Fig. 8)
	K         int          // vicinity size (same as ND.K)
	closestW  bool         // §4.4 variant: closest w with a long-enough prefix
	fallbacks int          // count of lookups that needed the landmark DB
	misses    int          // count of lookups where even the group had no address
}

// DiscoOption customizes NewDisco.
type DiscoOption func(*discoOptions)

type discoOptions struct {
	ndOpts  []NDOption
	fingers int
	vnodes  int
	seed    int64
	closest bool
}

// WithNDOptions forwards options to the underlying NDDisco.
func WithNDOptions(opts ...NDOption) DiscoOption {
	return func(o *discoOptions) { o.ndOpts = append(o.ndOpts, opts...) }
}

// WithFingers sets the number of outgoing overlay fingers per node (the
// paper evaluates 1 and 3; default 1).
func WithFingers(f int) DiscoOption { return func(o *discoOptions) { o.fingers = f } }

// WithResolveVNodes sets the number of hash functions per landmark in the
// resolution DB (default 1; §4.5 notes multiple functions cut imbalance).
func WithResolveVNodes(v int) DiscoOption { return func(o *discoOptions) { o.vnodes = v } }

// WithSeed seeds overlay finger selection.
func WithSeed(s int64) DiscoOption { return func(o *discoOptions) { o.seed = s } }

// WithClosestMember switches group-member selection to the §4.4
// parenthetical variant: "this can be optimized slightly to be the closest
// node w with a 'long enough' prefix match" — pick the nearest vicinity
// member matching the destination's full group prefix instead of the
// longest-prefix one. Shortens the s ⇝ w leg at equal hit probability.
func WithClosestMember() DiscoOption { return func(o *discoOptions) { o.closest = true } }

// NewDisco assembles the converged Disco protocol over env.
func NewDisco(env *static.Env, opts ...DiscoOption) *Disco {
	o := discoOptions{fingers: 1, vnodes: 1, seed: 1}
	for _, f := range opts {
		f(&o)
	}
	nd := NewNDDisco(env, o.ndOpts...)
	view := sloppy.BuildView(env.Hashes, env.NEst)
	db := resolve.New(env.Landmarks, env.NameOf, o.vnodes)
	net := overlay.Build(env.Hashes, view, o.fingers, rand.New(rand.NewSource(o.seed)))
	return &Disco{ND: nd, DB: db, View: view, Net: net, K: nd.K, closestW: o.closest}
}

// Env returns the shared environment.
func (d *Disco) Env() *static.Env { return d.ND.Env }

// fork wraps an NDDisco fork: the converged resolution DB, grouping view
// and overlay are name-space state — independent of topology — and stay
// shared read-only; the fallback/miss counters start at zero so each
// worker tallies its own routes. Sum fork counters (order-independent) to
// recover the serial totals.
func (d *Disco) fork(nd *NDDisco) *Disco {
	return &Disco{ND: nd, DB: d.DB, View: d.View, Net: d.Net, K: d.K, closestW: d.closestW}
}

// Fork returns a concurrency view of d for one worker of a parallel sweep.
func (d *Disco) Fork() *Disco { return d.fork(d.ND.Fork()) }

// ForkWith is Fork with a caller-supplied destination-tree scratch shared
// between the protocol forks of one worker (see NDDisco.ForkWith).
func (d *Disco) ForkWith(dest *pathtree.Lazy) *Disco { return d.fork(d.ND.ForkWith(dest)) }

// ForkRepaired returns a Disco routing view over the repaired snapshot
// (see NDDisco.ForkRepaired).
func (d *Disco) ForkRepaired(rep *snapshot.Snapshot) *Disco { return d.fork(d.ND.ForkRepaired(rep)) }

// HasAddress reports whether node holder stores target's current address:
// the dissemination overlay delivers t's announcements to (at least) the
// nodes that mutually agree with t on the grouping (§4.4 core-group
// argument).
func (d *Disco) HasAddress(holder, target graph.NodeID) bool {
	if holder == target {
		return true
	}
	return d.View.Mutual(target, holder)
}

// FindGroupMember returns the vicinity node w that should hold t's
// address, plus whether it actually does. Default selection: the node with
// the longest prefix match between h(w) and h(t), ties broken by distance
// then ID (§4.4). With WithClosestMember, the closest node whose prefix
// match covers s's full group width ("long enough"), falling back to
// longest-prefix when none qualifies.
func (d *Disco) FindGroupMember(s, t graph.NodeID) (w graph.NodeID, ok bool) {
	vs := d.ND.Vicinity(s)
	if i, ok := d.findGroupMember(vs, s, t); i >= 0 {
		return vs.ID(i), ok
	}
	return graph.None, false
}

// findGroupMember is FindGroupMember over an already read V(s), which the
// first packet goes on to route through: it returns the member's index in
// vs (-1 when s is alone in it). Members ascend by ID, so among members
// that tie on prefix and distance the first one met is the lowest ID.
func (d *Disco) findGroupMember(vs *vicinity.Window, s, t graph.NodeID) (i int, ok bool) {
	ht := d.Env().HashOf(t)
	if d.closestW {
		need := d.View.KOf(s)
		best, bestDist := -1, 0.0
		for j := 0; j < vs.Size(); j++ {
			w := vs.ID(j)
			if w == s || names.CommonPrefixLen(d.Env().HashOf(w), ht) < need {
				continue
			}
			if dist := vs.Dist(j); best < 0 || dist < bestDist {
				best, bestDist = j, dist
			}
		}
		if best >= 0 {
			return best, d.HasAddress(vs.ID(best), t)
		}
		// No full-prefix member: fall through to longest-prefix.
	}
	best, bestPrefix, bestDist := -1, -1, 0.0
	for j := 0; j < vs.Size(); j++ {
		w := vs.ID(j)
		if w == s {
			continue
		}
		p, dist := names.CommonPrefixLen(d.Env().HashOf(w), ht), vs.Dist(j)
		if p > bestPrefix || (p == bestPrefix && dist < bestDist) {
			best, bestPrefix, bestDist = j, p, dist
		}
	}
	return best, best >= 0 && d.HasAddress(vs.ID(best), t)
}

// FirstRoute returns the route of a flow's first packet from s to t given
// only t's flat name. The general path is s ⇝ w ⇝ l_t ⇝ t where w is the
// vicinity node in t's sloppy group; worst-case stretch 7 (§4.5 Theorem 1).
// If no vicinity node holds the address (vanishing probability with exact
// estimates; measurable under injected error) the packet falls back to the
// landmark resolution database: s ⇝ owner(h(t)) ⇝ l_t ⇝ t. Must-deliver
// (the topology must be connected); on failed topologies use
// RepairedFirstRoute.
func (d *Disco) FirstRoute(s, t graph.NodeID, sc Shortcut) []graph.NodeID {
	return dynamics.MustDeliver(d.firstRoute(s, t, sc))
}

// RepairedFirstRoute is FirstRoute under To-Destination shortcutting with
// ok=false when neither the group member path nor the resolution owner
// can reach t on the (repaired) snapshot.
func (d *Disco) RepairedFirstRoute(s, t graph.NodeID) ([]graph.NodeID, bool) {
	return d.firstRoute(s, t, ShortcutToDestination)
}

// firstRoute is the name-independent first packet (§4.4), composed on
// NDDisco's route: when s cannot address t itself, the packet travels to
// the node that can — the group member w in s's vicinity, else the
// resolution owner — which forwards it as an NDDisco source (its own
// direct cases and shortcut walk), and then s's walk runs over the joined
// route. The holder forwards along t's address only, so the reverse-route
// heuristic (which needs s's address at t) does not apply on its leg.
func (d *Disco) firstRoute(s, t graph.NodeID, sc Shortcut) ([]graph.NodeID, bool) {
	nd := d.ND
	snap := nd.snapshot()
	if d.Env().IsLM[t] || nd.rd.VicinityContains(s, t) || d.HasAddress(s, t) {
		return nd.route(s, t, sc, false)
	}
	// V(s) is read once, for the member search and the path to the member,
	// both done before the next read.
	vs := nd.rd.Vicinity(s)
	var holder graph.NodeID
	var head []graph.NodeID
	if i, ok := d.findGroupMember(vs, s, t); ok {
		holder, head = vs.ID(i), vs.AppendPath(nil, i)
	} else {
		// Resolution fallback: the owning landmark answers the query and
		// forwards — both legs must survive any failures.
		d.fallbacks++
		d.misses++
		holder = d.DB.OwnerOf(d.Env().HashOf(t))
		if !snap.Reaches(holder, s) {
			return nil, false
		}
		head = snap.PathFrom(holder, s)
	}
	rest, ok := nd.route(holder, t, sc.withoutReverse(), false)
	if !ok {
		return nil, false
	}
	return nd.walk(dynamics.JoinPaths(head, rest), 0, t, sc), true
}

// LaterRoute returns the route after the first packet: s has learned t's
// address (and the handshake applies), so the name-resolution machinery
// drops out and routing is NDDisco with stretch <= 3 (§4.5 Theorem 1).
func (d *Disco) LaterRoute(s, t graph.NodeID, sc Shortcut) []graph.NodeID {
	return d.ND.LaterRoute(s, t, sc)
}

// RepairedLaterRoute is the ok-returning LaterRoute — which is what
// completes dynamics.Router for the Disco view.
func (d *Disco) RepairedLaterRoute(s, t graph.NodeID) ([]graph.NodeID, bool) {
	return d.ND.RepairedLaterRoute(s, t)
}

// Fallbacks returns how many FirstRoute calls used the landmark-database
// fallback, and how many of those were true misses (no vicinity member had
// the address). Used by the estimate-error experiment (§5).
func (d *Disco) Fallbacks() (fallbacks, misses int) { return d.fallbacks, d.misses }

// GroupSize returns |G(v)| as v sees it (the number of addresses v stores).
func (d *Disco) GroupSize(v graph.NodeID) int {
	n := d.Env().N()
	count := 0
	for w := 0; w < n; w++ {
		if graph.NodeID(w) != v && d.View.InGroup(v, graph.NodeID(w)) {
			count++
		}
	}
	return count
}

// String summarizes the instance.
func (d *Disco) String() string {
	return fmt.Sprintf("Disco{n=%d, landmarks=%d, K=%d}", d.Env().N(), len(d.Env().Landmarks), d.K)
}
