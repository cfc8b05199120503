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
	"fmt"
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
	path []graph.NodeID // from the holding node to the destination
}

type node struct {
	id            graph.NodeID
	cand          map[graph.NodeID]map[graph.NodeID]route // dst -> via -> candidate
	best          map[graph.NodeID]route
	vic           map[graph.NodeID]bool // destinations occupying vicinity slots
	dirty         map[graph.NodeID]bool
	sendScheduled bool
}

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
			id:    graph.NodeID(i),
			cand:  make(map[graph.NodeID]map[graph.NodeID]route),
			best:  make(map[graph.NodeID]route),
			vic:   make(map[graph.NodeID]bool),
			dirty: make(map[graph.NodeID]bool),
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
	c := &Protocol{g: p.g, eng: eng, cfg: p.cfg}
	c.nodes = make([]*node, len(p.nodes))
	for i, nd := range p.nodes {
		if nd.sendScheduled || len(nd.dirty) > 0 {
			return nil, fmt.Errorf("pathvector: Clone of a non-quiesced instance (node %d has pending sends)", nd.id)
		}
		cn := &node{
			id:    nd.id,
			cand:  make(map[graph.NodeID]map[graph.NodeID]route, len(nd.cand)),
			best:  make(map[graph.NodeID]route, len(nd.best)),
			vic:   make(map[graph.NodeID]bool, len(nd.vic)),
			dirty: make(map[graph.NodeID]bool),
		}
		for dst, m := range nd.cand {
			mm := make(map[graph.NodeID]route, len(m))
			for via, r := range m {
				mm[via] = r
			}
			cn.cand[dst] = mm
		}
		for dst, r := range nd.best {
			cn.best[dst] = r
		}
		for v := range nd.vic {
			cn.vic[v] = true
		}
		c.nodes[i] = cn
	}
	if p.dead != nil {
		c.dead = make(map[uint64]bool, len(p.dead))
		for k, v := range p.dead {
			c.dead[k] = v
		}
	}
	return c, nil
}

// Start seeds every node's route to itself and schedules the initial
// announcements.
func (p *Protocol) Start() {
	for _, nd := range p.nodes {
		nd.best[nd.id] = route{dist: 0, path: []graph.NodeID{nd.id}}
		nd.vic[nd.id] = true
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
// current worst member if the newcomer beats it.
func (p *Protocol) vicAdmit(nd *node, dst graph.NodeID, d float64) bool {
	if len(nd.vic) < p.cfg.K {
		nd.vic[dst] = true
		return true
	}
	worst, worstD := p.worstVic(nd)
	if worst == graph.None {
		return false
	}
	if d < worstD || (d == worstD && dst < worst) {
		p.evictVic(nd, worst)
		nd.vic[dst] = true
		return true
	}
	return false
}

func (p *Protocol) worstVic(nd *node) (graph.NodeID, float64) {
	worst := graph.None
	worstD := -1.0
	//disco:orderinvariant max-fold with a total-order tie-break on node ID
	for v := range nd.vic {
		d := nd.best[v].dist
		if _, ok := nd.best[v]; !ok {
			continue
		}
		if worst == graph.None || d > worstD || (d == worstD && v > worst) {
			worst, worstD = v, d
		}
	}
	return worst, worstD
}

// evictVic removes v from nd's vicinity; unless v is a landmark its routes
// are dropped entirely and a withdrawal is scheduled.
func (p *Protocol) evictVic(nd *node, v graph.NodeID) {
	delete(nd.vic, v)
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
	nd.dirty[dst] = true
	if nd.sendScheduled {
		return
	}
	nd.sendScheduled = true
	p.eng.Schedule(0, func() { p.flush(nd) })
}

// flush sends one coalesced update per dirty destination to every neighbor.
func (p *Protocol) flush(nd *node) {
	nd.sendScheduled = false
	if len(nd.dirty) == 0 {
		return
	}
	dsts := make([]graph.NodeID, 0, len(nd.dirty))
	for d := range nd.dirty {
		dsts = append(dsts, d)
	}
	slices.Sort(dsts)
	nd.dirty = make(map[graph.NodeID]bool)
	for _, e := range p.g.Neighbors(nd.id) {
		if !p.LinkAlive(nd.id, e.To) {
			continue
		}
		to := p.nodes[e.To]
		lat := e.Weight
		if lat <= 0 {
			lat = 1e-6 // zero-latency links still impose an ordering step
		}
		for _, dst := range dsts {
			p.Messages++
			if r, ok := nd.best[dst]; ok {
				pathCopy := append([]graph.NodeID(nil), r.path...)
				dst := dst
				p.eng.Schedule(lat, func() { p.receive(to, nd.id, dst, pathCopy) })
			} else {
				dst := dst
				p.eng.Schedule(lat, func() { p.withdraw(to, nd.id, dst) })
			}
		}
	}
}

// receive processes an announcement at node nd from neighbor via.
func (p *Protocol) receive(nd *node, via, dst graph.NodeID, path []graph.NodeID) {
	if dst == nd.id {
		return
	}
	// Loop prevention: the path already contains us.
	for _, x := range path {
		if x == nd.id {
			p.withdraw(nd, via, dst)
			return
		}
	}
	full := append([]graph.NodeID{nd.id}, path...)
	// Distances are recomputed from the full path, summed source-outward,
	// so converged values are bit-identical to the static simulator's
	// Dijkstra (same association order on the same path).
	offered := p.g.PathLength(full)
	if !p.accepts(nd, dst, offered) {
		return
	}
	m := nd.cand[dst]
	if m == nil {
		m = make(map[graph.NodeID]route)
		nd.cand[dst] = m
	}
	m[via] = route{dist: offered, path: full}
	if p.cfg.Forgetful {
		p.forget(nd, dst)
	}
	p.reselect(nd, dst)
}

// withdraw processes a withdrawal of dst received from via.
func (p *Protocol) withdraw(nd *node, via, dst graph.NodeID) {
	m, ok := nd.cand[dst]
	if !ok {
		return
	}
	if _, had := m[via]; !had {
		return
	}
	delete(m, via)
	if len(m) == 0 {
		delete(nd.cand, dst)
	}
	p.reselect(nd, dst)
}

// forget implements forgetful routing [24]: keep only the best candidate
// per destination, discarding alternates (trades convergence speed for
// control-plane state, §4.2).
func (p *Protocol) forget(nd *node, dst graph.NodeID) {
	m := nd.cand[dst]
	if len(m) <= 1 {
		return
	}
	bestVia, bestR, first := graph.None, route{}, true
	//disco:orderinvariant min-fold with a total-order tie-break on via
	for via, r := range m {
		if first || r.dist < bestR.dist || (r.dist == bestR.dist && via < bestVia) {
			bestVia, bestR, first = via, r, false
		}
	}
	nd.cand[dst] = map[graph.NodeID]route{bestVia: bestR}
}

// reselect recomputes nd's best route to dst and triggers announcements on
// change.
func (p *Protocol) reselect(nd *node, dst graph.NodeID) {
	m := nd.cand[dst]
	bestVia, bestR, found := graph.None, route{}, false
	//disco:orderinvariant min-fold with a total-order tie-break on via
	for via, r := range m {
		if !found || r.dist < bestR.dist || (r.dist == bestR.dist && via < bestVia) {
			bestVia, bestR, found = via, r, true
		}
	}
	old, had := nd.best[dst]
	if !found {
		if had {
			delete(nd.best, dst)
			if nd.vic[dst] && !p.isLandmark(dst) {
				delete(nd.vic, dst)
			}
			p.markDirty(nd, dst)
		}
		return
	}
	// A stored destination outside the vicinity (a far landmark) may
	// qualify for a slot — on route improvement, or when vicinity members
	// worsened after a failure and a refresh re-offered this one. This
	// must run even when the best route itself is unchanged.
	if p.cfg.Mode == ModeVicinity && !nd.vic[dst] {
		p.vicAdmit(nd, dst, bestR.dist)
	}
	if had && old.dist == bestR.dist && equalPath(old.path, bestR.path) {
		return
	}
	nd.best[dst] = bestR
	p.markDirty(nd, dst)
}

func equalPath(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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

// VicinitySet assembles v's converged vicinity as a vicinity.Set for
// comparison against the static simulator.
func (p *Protocol) VicinitySet(v graph.NodeID) *vicinity.Set {
	nd := p.nodes[v]
	entries := make([]vicinity.Entry, 0, len(nd.vic))
	//disco:orderinvariant FromEntries sorts the entries by node before building the set
	for dst := range nd.vic {
		r := nd.best[dst]
		parent := graph.None
		if len(r.path) >= 2 {
			// Parent of dst on the path from v: the node before dst.
			parent = r.path[len(r.path)-2]
		}
		entries = append(entries, vicinity.Entry{Node: dst, Parent: parent, Dist: r.dist})
	}
	return vicinity.FromEntries(v, entries)
}

// VicinityMembers returns the converged vicinity membership of v, sorted.
func (p *Protocol) VicinityMembers(v graph.NodeID) []graph.NodeID {
	nd := p.nodes[v]
	out := make([]graph.NodeID, 0, len(nd.vic))
	for dst := range nd.vic {
		out = append(out, dst)
	}
	slices.Sort(out)
	return out
}

// DataEntries returns v's data-plane entry count (stored destinations).
func (p *Protocol) DataEntries(v graph.NodeID) int { return len(p.nodes[v].best) }

// ControlEntries returns v's control-plane entry count: all per-neighbor
// candidates (Θ(δ·sqrt(n log n)) without forgetful routing, §4.2).
func (p *Protocol) ControlEntries(v graph.NodeID) int {
	t := 0
	for _, m := range p.nodes[v].cand {
		t += len(m)
	}
	return t
}

// LMDistances extracts every node's distance to its nearest landmark from a
// converged ModeLandmarksOnly (or ModeVicinity) run — the input to S4's
// cluster phase.
func (p *Protocol) LMDistances() []float64 {
	out := make([]float64, len(p.nodes))
	for v := range p.nodes {
		best := graph.Inf
		//disco:orderinvariant min-fold over distances; float min is commutative
		for dst, r := range p.nodes[v].best {
			if p.isLandmark(dst) && r.dist < best {
				best = r.dist
			}
		}
		if p.isLandmark(graph.NodeID(v)) {
			best = 0
		}
		out[v] = best
	}
	return out
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
