// Package pathvector implements the event-driven distributed control plane
// of §4.2: "Nodes learn shortest paths to landmarks and vicinities via a
// single, standard path vector routing protocol. When learning paths, a
// route announcement is accepted into v's routing table if and only if the
// route's destination is a landmark or one of the Θ(sqrt(n log n)) closest
// nodes currently advertised to v. The entire routing table is then
// exported to v's neighbors."
//
// The same engine also runs the two baselines' control planes: plain path
// vector (accept everything — the Fig. 8 "Path-vector" curve) and S4's
// cluster-scoped flooding (accept a destination while the offered distance
// is below the destination's own landmark distance).
//
// Convergence is quiescence of the event queue (triggered updates only).
// Messages are counted per destination announcement or withdrawal sent to
// one neighbor, coalesced per processing instant — the granularity behind
// the paper's "mean messages per node until convergence" (Fig. 8).
package pathvector

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"

	"disco/internal/graph"
	"disco/internal/sim"
	"disco/internal/vicinity"
)

// Mode selects the acceptance rule.
type Mode int

const (
	// ModeFull accepts every destination: classic path vector, Ω(n) state.
	ModeFull Mode = iota
	// ModeVicinity accepts landmarks plus the K closest currently
	// advertised destinations (NDDisco/Disco, §4.2).
	ModeVicinity
	// ModeLandmarksOnly accepts only landmark destinations (S4/NDDisco
	// phase 1: build the landmark forest).
	ModeLandmarksOnly
	// ModeCluster accepts a destination d while the offered distance is
	// strictly below d's own landmark distance (S4's clusters; requires
	// LMDist, i.e. a completed ModeLandmarksOnly phase).
	ModeCluster
)

// Config parameterizes a protocol run.
type Config struct {
	Mode       Mode
	K          int       // vicinity size including self (ModeVicinity)
	IsLandmark []bool    // landmark flags by node (ModeVicinity/LandmarksOnly/Cluster)
	LMDist     []float64 // per-node landmark distance (ModeCluster)
	Forgetful  bool      // forgetful routing [24]: keep only best candidates
}

type route struct {
	dist float64
	path []graph.NodeID // from the holding node to the destination; never written once built
}

// cand is one neighbor's offer for a destination.
type cand struct {
	via graph.NodeID
	route
}

// member is one vicinity slot: a destination and the distance of its
// current best route, -Inf while it has none (a landmark whose routes were
// all withdrawn keeps its slot).
type member struct {
	dist float64
	id   graph.NodeID
}

func cmpMember(a, b member) int {
	return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.id, b.id))
}

type node struct {
	id            graph.NodeID
	cand          map[graph.NodeID][]cand // dst -> one offer per neighbor
	best          map[graph.NodeID]route
	vic           []member       // destinations occupying vicinity slots, ascending (dist, id)
	dirty         []graph.NodeID // destinations to export, drained in ID order
	sendScheduled bool
}

// vicKey is dst's vicinity ordering key under nd's current best route.
func (nd *node) vicKey(dst graph.NodeID) member {
	if r, ok := nd.best[dst]; ok {
		return member{dist: r.dist, id: dst}
	}
	return member{dist: math.Inf(-1), id: dst}
}

// vicFind returns dst's vicinity slot, if it has one.
func (nd *node) vicFind(dst graph.NodeID) (int, bool) {
	return slices.BinarySearchFunc(nd.vic, nd.vicKey(dst), cmpMember)
}

// vicAdd gives dst a vicinity slot unless it has one.
func (nd *node) vicAdd(dst graph.NodeID) {
	if i, ok := nd.vicFind(dst); !ok {
		nd.vic = slices.Insert(nd.vic, i, nd.vicKey(dst))
	}
}

// vicDrop frees dst's vicinity slot, if it has one, and reports whether it
// had.
func (nd *node) vicDrop(dst graph.NodeID) bool {
	i, ok := nd.vicFind(dst)
	if ok {
		nd.vic = slices.Delete(nd.vic, i, i+1)
	}
	return ok
}

// setBest stores nd's best route to dst, or drops it when ok is false,
// moving dst's vicinity slot, if it has one, to its new place in the order.
func (nd *node) setBest(dst graph.NodeID, r route, ok bool) {
	in := nd.vicDrop(dst)
	if ok {
		nd.best[dst] = r
	} else {
		delete(nd.best, dst)
	}
	if in {
		nd.vicAdd(dst)
	}
}

// candDsts returns nd's candidate destinations in ID order.
func (nd *node) candDsts() []graph.NodeID { return slices.Sorted(maps.Keys(nd.cand)) }

// Protocol is one protocol instance over a graph.
type Protocol struct {
	g     *graph.Graph
	eng   *sim.Engine
	cfg   Config
	nodes []*node
	dead  map[uint64]bool // failed links (see dynamics.go)

	// Messages counts announcements + withdrawals, per destination per
	// neighbor (the Fig. 8 unit).
	Messages int64
}

// New creates a protocol instance bound to an engine. Call Start then
// eng.Run.
func New(g *graph.Graph, eng *sim.Engine, cfg Config) *Protocol {
	if cfg.Mode == ModeVicinity && cfg.K < 1 {
		panic("pathvector: ModeVicinity requires K >= 1")
	}
	if cfg.Mode == ModeCluster && cfg.LMDist == nil {
		panic("pathvector: ModeCluster requires LMDist")
	}
	p := &Protocol{g: g, eng: eng, cfg: cfg}
	p.nodes = make([]*node, g.N())
	for i := range p.nodes {
		p.nodes[i] = &node{
			id:   graph.NodeID(i),
			cand: make(map[graph.NodeID][]cand),
			best: make(map[graph.NodeID]route),
		}
	}
	return p
}

// Clone returns a deep copy of a quiesced protocol instance bound to a
// fresh engine: the routing tables (candidates, best routes, vicinity
// membership) are copied so the clone can diverge, while the immutable
// path slices inside routes are shared — announcements always build fresh
// paths, so shared slices are never written through. Cloning a converged
// instance replaces re-running initial convergence per churn trial with an
// O(state) copy; Clone may be called concurrently from multiple workers
// (it only reads p). Cloning an instance that still has scheduled sends
// is an error — they would be lost in the engine swap — returned rather
// than panicked, matching the snapshot layer's Build convention.
func (p *Protocol) Clone(eng *sim.Engine) (*Protocol, error) {
	c := &Protocol{g: p.g, eng: eng, cfg: p.cfg, dead: maps.Clone(p.dead)}
	c.nodes = make([]*node, len(p.nodes))
	for i, nd := range p.nodes {
		if nd.sendScheduled || len(nd.dirty) > 0 {
			return nil, fmt.Errorf("pathvector: Clone of a non-quiesced instance (node %d has pending sends)", nd.id)
		}
		cn := &node{
			id:   nd.id,
			cand: make(map[graph.NodeID][]cand, len(nd.cand)),
			best: maps.Clone(nd.best),
			vic:  slices.Clone(nd.vic),
		}
		for _, dst := range nd.candDsts() {
			cn.cand[dst] = slices.Clone(nd.cand[dst])
		}
		c.nodes[i] = cn
	}
	return c, nil
}

// Start seeds every node's route to itself and schedules the initial
// announcements.
func (p *Protocol) Start() {
	for _, nd := range p.nodes {
		nd.best[nd.id] = route{dist: 0, path: []graph.NodeID{nd.id}}
		nd.vicAdd(nd.id)
		p.markDirty(nd, nd.id)
	}
}

func (p *Protocol) isLandmark(v graph.NodeID) bool {
	return p.cfg.IsLandmark != nil && p.cfg.IsLandmark[v]
}

// accepts decides whether nd may store destination dst at offered distance
// d, per the configured rule. It may evict a vicinity member to make room
// (returning the same decision a converged run would).
func (p *Protocol) accepts(nd *node, dst graph.NodeID, d float64) bool {
	if dst == nd.id {
		return false
	}
	if _, stored := nd.best[dst]; stored {
		return true
	}
	if _, hasCand := nd.cand[dst]; hasCand {
		return true
	}
	switch p.cfg.Mode {
	case ModeFull:
		return true
	case ModeLandmarksOnly:
		return p.isLandmark(dst)
	case ModeCluster:
		return p.isLandmark(dst) || d < p.cfg.LMDist[dst]
	case ModeVicinity:
		// Landmarks are always stored; they additionally occupy a
		// vicinity slot when among the K closest, exactly like the static
		// definition (V(v) is the K closest nodes of any kind).
		admitted := p.vicAdmit(nd, dst, d)
		return admitted || p.isLandmark(dst)
	}
	panic("pathvector: unknown mode")
}

// vicAdmit applies the "K closest currently advertised" rule, evicting the
// current worst member if the newcomer beats it. The worst member is the
// last slot, unless no member has a route at all.
func (p *Protocol) vicAdmit(nd *node, dst graph.NodeID, d float64) bool {
	if len(nd.vic) < p.cfg.K {
		nd.vicAdd(dst)
		return true
	}
	worst := nd.vic[len(nd.vic)-1]
	if math.IsInf(worst.dist, -1) {
		return false
	}
	if d < worst.dist || (d == worst.dist && dst < worst.id) {
		p.evictVic(nd, worst.id)
		nd.vicAdd(dst)
		return true
	}
	return false
}

// evictVic removes v from nd's vicinity; unless v is a landmark its routes
// are dropped entirely and a withdrawal is scheduled.
func (p *Protocol) evictVic(nd *node, v graph.NodeID) {
	nd.vicDrop(v)
	if p.isLandmark(v) {
		return // still stored as a landmark route
	}
	delete(nd.cand, v)
	delete(nd.best, v)
	p.markDirty(nd, v)
}

// markDirty schedules (once per instant) the export of dst's state to all
// neighbors.
func (p *Protocol) markDirty(nd *node, dst graph.NodeID) {
	nd.dirty = append(nd.dirty, dst)
	if nd.sendScheduled {
		return
	}
	nd.sendScheduled = true
	p.eng.Schedule(0, func() { p.flush(nd) })
}

// flush sends one coalesced update per dirty destination, in ID order, to
// every neighbor. One event per neighbor delivers its updates back to back,
// in the order one event per update would: those would fire at the same
// time with consecutive sequence numbers.
func (p *Protocol) flush(nd *node) {
	nd.sendScheduled = false
	if len(nd.dirty) == 0 {
		return
	}
	slices.Sort(nd.dirty)
	dsts := slices.Compact(nd.dirty)
	nd.dirty = nil
	// Each destination's path, looked up once; nil announces a withdrawal.
	paths := make([][]graph.NodeID, len(dsts))
	for i, dst := range dsts {
		paths[i] = nd.best[dst].path
	}
	for _, e := range p.g.Neighbors(nd.id) {
		if !p.LinkAlive(nd.id, e.To) {
			continue
		}
		to := p.nodes[e.To]
		lat := e.Weight
		if lat <= 0 {
			lat = 1e-6 // zero-latency links still impose an ordering step
		}
		p.Messages += int64(len(dsts))
		p.eng.Schedule(lat, func() {
			for i, dst := range dsts {
				if paths[i] != nil {
					p.receive(to, nd.id, dst, paths[i])
				} else {
					p.withdraw(to, nd.id, dst)
				}
			}
		})
	}
}

// receive processes an announcement at node nd from neighbor via.
func (p *Protocol) receive(nd *node, via, dst graph.NodeID, path []graph.NodeID) {
	if dst == nd.id {
		return
	}
	// Loop prevention: the path already contains us.
	if slices.Contains(path, nd.id) {
		p.withdraw(nd, via, dst)
		return
	}
	cs := nd.cand[dst]
	i := slices.IndexFunc(cs, func(c cand) bool { return c.via == via })
	if i >= 0 && slices.Equal(cs[i].path[1:], path) {
		// via repeats its standing offer (a refresh): nothing to store,
		// but dst may now earn a vicinity slot.
		p.reselect(nd, dst)
		return
	}
	full := append(append(make([]graph.NodeID, 0, len(path)+1), nd.id), path...)
	// Distances are recomputed from the full path, summed source-outward,
	// so converged values are bit-identical to the static simulator's
	// Dijkstra (same association order on the same path).
	offered := p.g.PathLength(full)
	if !p.accepts(nd, dst, offered) {
		return
	}
	c := cand{via: via, route: route{dist: offered, path: full}}
	if i >= 0 {
		cs[i] = c
	} else {
		nd.cand[dst] = append(cs, c)
	}
	if p.cfg.Forgetful {
		p.forget(nd, dst)
	}
	p.reselect(nd, dst)
}

// dropCand removes via's offer for dst, if any, and reports whether there
// was one.
func (nd *node) dropCand(dst, via graph.NodeID) bool {
	cs := nd.cand[dst]
	i := slices.IndexFunc(cs, func(c cand) bool { return c.via == via })
	if i < 0 {
		return false
	}
	nd.setCands(dst, slices.Delete(cs, i, i+1))
	return true
}

// setCands stores dst's remaining offers, forgetting dst once none is left.
func (nd *node) setCands(dst graph.NodeID, cs []cand) {
	if len(cs) == 0 {
		delete(nd.cand, dst)
	} else {
		nd.cand[dst] = cs
	}
}

// withdraw processes a withdrawal of dst received from via.
func (p *Protocol) withdraw(nd *node, via, dst graph.NodeID) {
	if nd.dropCand(dst, via) {
		p.reselect(nd, dst)
	}
}

// bestCand returns the shortest of cs, ties broken by the lower via; ok is
// false when cs is empty.
func bestCand(cs []cand) (best cand, ok bool) {
	for i, c := range cs {
		if i == 0 || c.dist < best.dist || (c.dist == best.dist && c.via < best.via) {
			best = c
		}
	}
	return best, len(cs) > 0
}

// forget implements forgetful routing [24]: keep only the best candidate
// per destination, discarding alternates (trades convergence speed for
// control-plane state, §4.2).
func (p *Protocol) forget(nd *node, dst graph.NodeID) {
	cs := nd.cand[dst]
	if len(cs) <= 1 {
		return
	}
	b, _ := bestCand(cs)
	nd.cand[dst] = append(cs[:0], b)
}

// reselect recomputes nd's best route to dst and triggers announcements on
// change.
func (p *Protocol) reselect(nd *node, dst graph.NodeID) {
	b, found := bestCand(nd.cand[dst])
	old, had := nd.best[dst]
	if !found {
		if had {
			if !p.isLandmark(dst) {
				nd.vicDrop(dst) // a landmark keeps its slot
			}
			nd.setBest(dst, route{}, false)
			p.markDirty(nd, dst)
		}
		return
	}
	// A stored destination outside the vicinity (a far landmark) may
	// qualify for a slot — on route improvement, or when vicinity members
	// worsened after a failure and a refresh re-offered this one. This
	// must run even when the best route itself is unchanged.
	if _, in := nd.vicFind(dst); p.cfg.Mode == ModeVicinity && !in {
		p.vicAdmit(nd, dst, b.dist)
	}
	if had && old.dist == b.dist && slices.Equal(old.path, b.path) {
		return
	}
	nd.setBest(dst, b.route, true)
	p.markDirty(nd, dst)
}

// BestDist returns v's converged distance to dst (+Inf if unknown).
func (p *Protocol) BestDist(v, dst graph.NodeID) float64 {
	if r, ok := p.nodes[v].best[dst]; ok {
		return r.dist
	}
	return graph.Inf
}

// BestPath returns v's converged path to dst or nil.
func (p *Protocol) BestPath(v, dst graph.NodeID) []graph.NodeID {
	if r, ok := p.nodes[v].best[dst]; ok {
		return append([]graph.NodeID(nil), r.path...)
	}
	return nil
}

// VicinitySet assembles v's converged vicinity as a vicinity.Window for
// comparison against the static simulator.
func (p *Protocol) VicinitySet(v graph.NodeID) *vicinity.Window {
	nd := p.nodes[v]
	entries := make([]vicinity.Entry, 0, len(nd.vic))
	for _, m := range nd.vic {
		r := nd.best[m.id]
		parent := graph.None
		if len(r.path) >= 2 {
			// Parent of dst on the path from v: the node before dst.
			parent = r.path[len(r.path)-2]
		}
		entries = append(entries, vicinity.Entry{Node: m.id, Parent: parent, Dist: r.dist})
	}
	return vicinity.FromEntries(p.g.N(), entries)
}

// DataEntries returns v's data-plane entry count (stored destinations).
//
//disco:fixture the root package's forgetful-routing ablation benchmark counts entries
func (p *Protocol) DataEntries(v graph.NodeID) int { return len(p.nodes[v].best) }

// ControlEntries returns v's control-plane entry count: all per-neighbor
// candidates (Θ(δ·sqrt(n log n)) without forgetful routing, §4.2).
//
//disco:fixture the root package's forgetful-routing ablation benchmark counts entries
func (p *Protocol) ControlEntries(v graph.NodeID) int {
	nd := p.nodes[v]
	t := 0
	for _, dst := range nd.candDsts() {
		t += len(nd.cand[dst])
	}
	return t
}

// String describes the configuration.
func (c Config) String() string {
	switch c.Mode {
	case ModeFull:
		return "path-vector(full)"
	case ModeVicinity:
		return fmt.Sprintf("path-vector(vicinity K=%d)", c.K)
	case ModeLandmarksOnly:
		return "path-vector(landmarks)"
	case ModeCluster:
		return "path-vector(cluster)"
	}
	return "path-vector(?)"
}
