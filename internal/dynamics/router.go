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
// pairs each with a packet phase. That is what lets the timeline engine,
// the failures experiment, the churn experiments and the serve plane share
// one routing call instead of special-casing three protocols each.
package dynamics

import (
	"fmt"

	"disco/internal/graph"
)

// Router is the protocol-agnostic repaired-routing interface: a routing
// view over a (possibly repaired) snapshot that forwards on post-event
// state only and reports undeliverable destinations as ok=false instead of
// panicking. core.NDDisco, core.Disco, s4.S4 and forward.Router all
// implement it; their must-deliver FirstRoute/LaterRoute wrap the same
// routes with MustDeliver.
type Router interface {
	// AppendRoute appends the route s ⇝ t to dst and reports
	// deliverability: a first packet (later=false) resolves t's name on
	// the way, a later one carries t's address from the handshake. dst is
	// only appended to, and on ok=false it comes back unextended.
	AppendRoute(dst []graph.NodeID, s, t graph.NodeID, later bool) ([]graph.NodeID, bool)
}

// AppendJoin lays a composed route: dst[base:] is a ⇝ b, and p is b ⇝ c.
// It appends p behind dst without the joint node, trimming any immediate
// backtrack across the joint (…x,b,x… → …x…), which arises when p starts
// back along dst[base:]; no trim reaches below base. Segments that do not
// meet are a caller bug and panic.
func AppendJoin(dst []graph.NodeID, base int, p []graph.NodeID) []graph.NodeID {
	if len(dst) == base || dst[len(dst)-1] != p[0] {
		panic(fmt.Sprintf("dynamics: AppendJoin segments do not meet: %v vs %d", dst[base:], p[0]))
	}
	for _, v := range p[1:] {
		if len(dst)-base >= 2 && dst[len(dst)-2] == v {
			dst = dst[:len(dst)-1] // backtrack x,b,x collapses to x
			continue
		}
		dst = append(dst, v)
	}
	return dst
}

// MustDeliver unwraps a route computed on a topology known to be
// connected, where ok=false can only be a harness bug (a must-deliver
// entry point called on a partitioned snapshot) and therefore panics.
func MustDeliver(p []graph.NodeID, ok bool) []graph.NodeID {
	if !ok {
		panic("dynamics: no route on a must-deliver call: route failed topologies through AppendRoute")
	}
	return p
}
