package forward

import (
	"slices"

	"disco/internal/dynamics"
	"disco/internal/graph"
)

// Router is one goroutine's forwarding view over a Tables: the installed
// state is shared, the scratch buffers are private. It answers exactly
// what core.NDDisco's walk answers under To-Destination shortcutting —
// same direct cases, same deterministic landmark rehoming, same
// dynamics.JoinPaths backtrack collapse, same To-Destination splice —
// byte for byte, because every decision reads the same windows and rows.
// The allocation-free entry point is AppendRoute; the dynamics.Router
// methods wrap it with one fresh-slice copy so existing callers (legs, the
// serve plane's generic path) keep their owned-route contract.
type Router struct {
	t     *Tables
	chain []graph.NodeID // forest descent scratch (t ⇝ landmark)
	route []graph.NodeID // landmark-leg route under construction
	out   []graph.NodeID // backing buffer for the dynamics.Router methods
}

var _ dynamics.Router = (*Router)(nil)
var _ dynamics.AppendRouter = (*Router)(nil)

// NewRouter returns a forwarding view over t for exclusive use by one
// goroutine at a time (the serve plane pools these per epoch).
func (t *Tables) NewRouter() *Router { return &Router{t: t} }

// AppendRoute appends the route s ⇝ t to dst and reports deliverability —
// the zero-allocation fast path: with the touched shards installed and
// dst, like the Router's scratch, at steady-state capacity, a call
// performs no heap allocation. later selects the post-handshake phase
// (the destination's reverse-path shortcut), mirroring
// RepairedLaterRoute vs RepairedFirstRoute. On ok=false dst is returned
// unextended.
func (r *Router) AppendRoute(dst []graph.NodeID, s, t graph.NodeID, later bool) ([]graph.NodeID, bool) {
	tb := r.t
	// Direct cases, in core.NDDisco.route's order: self, live landmark
	// destination, destination inside s's vicinity.
	if s == t {
		return append(dst, s), true
	}
	if tb.isLM[t] {
		row := tb.row(tb.lmRowIdx[t])
		if row.Parent(s) == graph.None {
			return dst, false // cut off from the landmark (s != t here)
		}
		for u := s; u != graph.None; u = row.Parent(u) {
			dst = append(dst, u)
		}
		return dst, true
	}
	ns := tb.node(s)
	if i := ns.Find(t); i >= 0 {
		return ns.AppendPath(dst, i), true
	}
	// Later packets: t installed the exact reverse path when s is in t's
	// vicinity: its path t ⇝ s, traveled s → t.
	if later {
		nt := tb.node(t)
		if j := nt.Find(s); j >= 0 {
			base := len(dst)
			dst = nt.AppendPath(dst, j)
			slices.Reverse(dst[base:])
			return dst, true
		}
	}
	return r.appendLandmarkRoute(dst, s, t)
}

// rehome returns the landmark the repaired control plane homes t to —
// core.NDDisco.rehomeLandmark's rule verbatim: t's original landmark
// while its tree reaches t, else the lowest-ID landmark whose tree does,
// else graph.None (t's component lost every landmark).
func (r *Router) rehome(t graph.NodeID) graph.NodeID {
	tb := r.t
	if lm := tb.lmOf[t]; r.reaches(lm, t) {
		return lm
	}
	best := graph.None
	for _, lm := range tb.landmarks {
		if (best == graph.None || lm < best) && r.reaches(lm, t) {
			best = lm
		}
	}
	return best
}

// reaches reports whether lm's tree still reaches v (snapshot.Reaches on
// the installed row).
func (r *Router) reaches(lm, v graph.NodeID) bool {
	return v == lm || r.t.row(r.t.lmRowIdx[lm]).Parent(v) != graph.None
}

// appendLandmarkRoute is the landmark leg s ⇝ l_t ⇝ t with the
// To-Destination splice at the first en-route node whose vicinity knows
// t — core.NDDisco's leg under ShortcutToDestination over the installed
// tables. The route is assembled in the private scratch (the splice
// truncates and regrows it) and copied to dst once final.
func (r *Router) appendLandmarkRoute(dst []graph.NodeID, s, t graph.NodeID) ([]graph.NodeID, bool) {
	tb := r.t
	lm := r.rehome(t)
	if lm == graph.None {
		return dst, false
	}
	row := tb.row(tb.lmRowIdx[lm])
	if s != lm && row.Parent(s) == graph.None {
		return dst, false
	}
	// dynamics.JoinPaths(s ⇝ lm, lm ⇝ t) on the tree: the up-chain
	// from s, then the reversed up-chain from t with the joint node
	// deduplicated and immediate backtracks across it collapsed
	// (…x,lm,x… → …x…).
	route := r.route[:0]
	for u := s; u != graph.None; u = row.Parent(u) {
		route = append(route, u)
	}
	ch := r.chain[:0]
	for u := t; u != graph.None; u = row.Parent(u) {
		ch = append(ch, u)
	}
	r.chain = ch
	for k := len(ch) - 2; k >= 0; k-- {
		v := ch[k]
		if len(route) >= 2 && route[len(route)-2] == v {
			route = route[:len(route)-1]
			continue
		}
		route = append(route, v)
	}
	// To-Destination: divert to the direct vicinity path at the first
	// node that knows one; on a shortest sub-path toward t every later
	// node knows t too, so the first splice is final (core.NDDisco.walk).
	for i := 0; i < len(route); i++ {
		u := route[i]
		if u == t {
			route = route[:i+1]
			break
		}
		nu := tb.node(u)
		if j := nu.Find(t); j >= 0 {
			route = nu.AppendPath(route[:i], j)
			break
		}
	}
	r.route = route[:0]
	return append(dst, route...), true
}

// RepairedFirstRoute implements dynamics.Router: AppendRoute into the
// reusable backing buffer, returned as a fresh copy the caller owns.
func (r *Router) RepairedFirstRoute(s, t graph.NodeID) ([]graph.NodeID, bool) {
	return r.routeCopy(s, t, false)
}

// RepairedLaterRoute implements dynamics.Router for post-handshake
// packets.
func (r *Router) RepairedLaterRoute(s, t graph.NodeID) ([]graph.NodeID, bool) {
	return r.routeCopy(s, t, true)
}

func (r *Router) routeCopy(s, t graph.NodeID, later bool) ([]graph.NodeID, bool) {
	out, ok := r.AppendRoute(r.out[:0], s, t, later)
	r.out = out[:0]
	if !ok {
		return nil, false
	}
	return append([]graph.NodeID(nil), out...), true
}
