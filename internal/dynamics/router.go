// Package dynamics is the continuous-dynamics engine: a deterministic
// timeline that drives a copy-on-write chain of route-state snapshots
// through interleaved fail/recover events (Timeline), the protocol-
// agnostic interface every repaired routing view presents to it (Router),
// and blast-radius-derived control-message accounting (MessageModel) that
// prices re-convergence at sizes the event-driven simulator cannot reach.
//
// The package deliberately knows nothing about individual protocols:
// core.NDDisco, core.Disco and s4.S4 satisfy Router structurally (any
// fork over any snapshot), and the experiment harness (internal/eval)
// assembles the legs. That is what lets the timeline engine, the failures
// experiment and the churn experiments share one routing path instead of
// special-casing three protocols each.
package dynamics

import (
	"fmt"

	"disco/internal/graph"
)

// Router is the protocol-agnostic repaired-routing interface: a routing
// view over a (possibly repaired) snapshot that forwards on post-event
// state only and reports undeliverable destinations as ok=false instead of
// panicking. core.NDDisco, core.Disco and s4.S4 all implement it; their
// must-deliver FirstRoute/LaterRoute wrap the same routes with MustDeliver.
type Router interface {
	// RepairedFirstRoute routes a flow's first packet s ⇝ t (resolution
	// detours included) on the repaired data plane.
	RepairedFirstRoute(s, t graph.NodeID) ([]graph.NodeID, bool)
	// RepairedLaterRoute routes packets after the handshake.
	RepairedLaterRoute(s, t graph.NodeID) ([]graph.NodeID, bool)
}

// AppendRouter is the optional allocation-free extension of Router: a
// view that can append the route into a caller-supplied buffer instead of
// returning a fresh slice. The serve plane's probe path upgrades to it
// when the installed fork provides it (forward.Router does); dst is only
// appended to, and on ok=false it comes back unextended.
type AppendRouter interface {
	Router
	AppendRoute(dst []graph.NodeID, s, t graph.NodeID, later bool) ([]graph.NodeID, bool)
}

// Leg is one (router, packet phase) column of a dynamics table — the unit
// the failures and churn-timeline experiments iterate over instead of
// hard-coding protocols.
type Leg struct {
	Name  string
	R     Router
	Later bool
}

// Route routes one pair over the leg.
func (l Leg) Route(s, t graph.NodeID) ([]graph.NodeID, bool) {
	if l.Later {
		return l.R.RepairedLaterRoute(s, t)
	}
	return l.R.RepairedFirstRoute(s, t)
}

// ReversePath returns p reversed into a fresh slice — the route s ⇝ t
// recovered from the destination's stored path t ⇝ s (the handshake of
// later packets; valid because links are undirected).
func ReversePath(p []graph.NodeID) []graph.NodeID {
	rev := make([]graph.NodeID, len(p))
	for i := range p {
		rev[len(p)-1-i] = p[i]
	}
	return rev
}

// JoinPaths concatenates a⇝b and b⇝c into a fresh slice, deduplicating
// the joint node and trimming any immediate backtrack across the joint
// (…x,b,x… → …x…), which arises when the second segment starts back along
// the first. Segments that do not meet are a caller bug and panic.
func JoinPaths(p1, p2 []graph.NodeID) []graph.NodeID {
	if p1[len(p1)-1] != p2[0] {
		panic(fmt.Sprintf("dynamics: JoinPaths segments do not meet: %d vs %d", p1[len(p1)-1], p2[0]))
	}
	out := append(make([]graph.NodeID, 0, len(p1)+len(p2)-1), p1...)
	for _, v := range p2[1:] {
		if len(out) >= 2 && out[len(out)-2] == v {
			out = out[:len(out)-1] // backtrack x,b,x collapses to x
			continue
		}
		out = append(out, v)
	}
	return out
}

// MustDeliver unwraps a route computed on a topology known to be
// connected, where ok=false can only be a harness bug (a must-deliver
// entry point called on a partitioned snapshot) and therefore panics.
func MustDeliver(p []graph.NodeID, ok bool) []graph.NodeID {
	if !ok {
		panic("dynamics: no route on a must-deliver call: use RepairedFirstRoute/RepairedLaterRoute on failed topologies")
	}
	return p
}
