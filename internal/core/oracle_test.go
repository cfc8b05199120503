package core

import (
	"fmt"
	"slices"

	"disco/internal/graph"
)

// Hop-by-hop forwarding: FirstRoute/LaterRoute materialize routes from the
// converged environment for evaluation speed; this file forwards a packet
// using only the state an individual node actually holds — its vicinity
// table (first hops), its landmark routes (first hop toward each
// landmark), and the packet's carried address (explicit-route ports). The
// equality of the two (tested in forward_test.go) is what makes the static
// simulator's routes trustworthy as protocol output.

// packetPhase tracks which leg of s ⇝ l_t ⇝ t the packet is on.
type packetPhase int

const (
	phaseToLandmark packetPhase = iota
	phaseSourceRoute
)

// ForwardFirst forwards a first packet from s toward t's address hop by
// hop with To-Destination shortcutting (the component of the default
// heuristic that operates en route), returning the traversed node path.
// Each step consults only node-local state.
func (r *NDDisco) ForwardFirst(s, t graph.NodeID) []graph.NodeID {
	a := r.Env.AddrOf(t)
	path := []graph.NodeID{s}
	cur := s
	phase := phaseToLandmark
	srIdx := 0 // next explicit-route hop index once in phaseSourceRoute
	if cur == a.Landmark {
		phase = phaseSourceRoute
	}
	limit := 4*r.Env.N() + 16
	for cur != t {
		if len(path) > limit {
			panic(fmt.Sprintf("core: forwarding loop %d->%d", s, t))
		}
		// Local check 1: destination in my vicinity -> direct first hop.
		// The window is read whole, through the full decoder on a compact
		// snapshot, so the walk's in-place reads are checked against it.
		win := r.snapshot().Vicinity(cur)
		if i := win.Find(t); i >= 0 {
			nh := win.AppendPath(nil, i)[1]
			path = append(path, nh)
			cur = nh
			continue
		}
		// Local check 2: en route to the landmark, forward along my
		// landmark route; at the landmark, switch to the carried
		// explicit route.
		switch phase {
		case phaseToLandmark:
			nh := r.landmarkFirstHop(cur, a.Landmark)
			path = append(path, nh)
			cur = nh
			if cur == a.Landmark {
				phase = phaseSourceRoute
			}
		case phaseSourceRoute:
			// The carried ports index positions on l_t ⇝ t; find our
			// position lazily (nodes on the explicit route know their
			// offset in a real header; the simulator recovers it).
			for srIdx < len(a.Path) && a.Path[srIdx] != cur {
				srIdx++
			}
			if srIdx >= len(a.Path)-1 {
				panic(fmt.Sprintf("core: source route exhausted at %d (dest %d)", cur, t))
			}
			nh := r.Env.G.Neighbors(cur)[a.Ports[srIdx]].To
			path = append(path, nh)
			cur = nh
		}
	}
	return path
}

// landmarkFirstHop returns cur's first hop toward landmark lm — the data
// plane's landmark routing entry. In the converged protocol this is the
// parent of cur in lm's shortest-path tree (the reverse of the tree path),
// exactly what path vector installs.
func (r *NDDisco) landmarkFirstHop(cur, lm graph.NodeID) graph.NodeID {
	path := r.snapshot().AppendPathFrom(nil, lm, cur)
	if len(path) < 2 {
		panic(fmt.Sprintf("core: node %d has no route toward landmark %d", cur, lm))
	}
	return path[1]
}

// ForwardLater forwards a non-first packet: if s ∈ V(t) the handshake has
// installed the exact reverse path at s, otherwise the packet takes the
// same landmark route as ForwardFirst.
func (r *NDDisco) ForwardLater(s, t graph.NodeID) []graph.NodeID {
	if s == t {
		return []graph.NodeID{s}
	}
	vt := r.snapshot().Vicinity(t)
	if j := vt.Find(s); j >= 0 {
		path := vt.AppendPath(nil, j)
		slices.Reverse(path)
		return path
	}
	return r.ForwardFirst(s, t)
}

// ForwardFirst for Disco: the name-independent first packet. s consults
// only its own tables: vicinity membership, its sloppy-group address
// store, and prefix matching over its vicinity; the chosen w then forwards
// with the attached address exactly like NDDisco.
func (d *Disco) ForwardFirst(s, t graph.NodeID) []graph.NodeID {
	if s == t {
		return []graph.NodeID{s}
	}
	if d.ND.VicinityContains(s, t) || d.Env().IsLM[t] || d.HasAddress(s, t) {
		return d.ND.ForwardFirst(s, t)
	}
	w, ok := d.FindGroupMember(s, t)
	if !ok {
		// Landmark-database fallback: forward to the owning landmark.
		owner := d.DB.OwnerOf(d.Env().HashOf(t))
		head := d.forwardVia(s, owner)
		rest := d.ND.ForwardFirst(owner, t)
		return append(head, rest[1:]...)
	}
	head := d.forwardVia(s, w)
	rest := d.ND.ForwardFirst(w, t)
	return append(head, rest[1:]...)
}

// forwardVia forwards hop by hop toward an intermediate target the source
// knows directly (vicinity member or landmark).
func (d *Disco) forwardVia(s, mid graph.NodeID) []graph.NodeID {
	path := []graph.NodeID{s}
	cur := s
	limit := 4*d.Env().N() + 16
	for cur != mid {
		if len(path) > limit {
			panic("core: forwarding loop toward intermediate")
		}
		var nh graph.NodeID
		win := d.ND.snapshot().Vicinity(cur)
		if i := win.Find(mid); i >= 0 {
			nh = win.AppendPath(nil, i)[1]
		} else if d.Env().IsLM[mid] {
			nh = d.ND.landmarkFirstHop(cur, mid)
		} else {
			panic(fmt.Sprintf("core: node %d cannot forward toward %d", cur, mid))
		}
		path = append(path, nh)
		cur = nh
	}
	return path
}
