package forward

import (
	"disco/internal/dynamics"
	"disco/internal/graph"
	"disco/internal/vicinity"
)

// Router is one goroutine's forwarding view over a Tables: the compiled
// state is shared, the scratch buffers are private. It answers exactly
// what core.NDDisco.route answers under To-Destination shortcutting —
// same direct cases, same deterministic landmark rehoming, same
// dynamics.JoinPaths backtrack collapse, same To-Destination splice —
// byte for byte, because every decision reads the same shard contents
// through the compiled tables. The
// allocation-free entry point is AppendRoute; the dynamics.Router methods
// wrap it with one fresh-slice copy so existing callers (legs, the serve
// plane's generic path) keep their owned-route contract.
type Router struct {
	t     *Tables
	ix    vicinity.Index // compile scratch for windows a repair left cold
	stack []int32        // vicinity parent-chain scratch (entry indices)
	chain []graph.NodeID // forest descent scratch (t ⇝ landmark)
	route []graph.NodeID // landmark-leg route under construction
	out   []graph.NodeID // backing buffer for the dynamics.Router methods
}

var _ dynamics.Router = (*Router)(nil)
var _ dynamics.AppendRouter = (*Router)(nil)

// NewRouter returns a forwarding view over t for exclusive use by one
// goroutine at a time (the serve plane pools these per epoch).
func (t *Tables) NewRouter() *Router { return &Router{t: t} }

// node returns v's compiled table. A window an event dropped compiles here,
// on the querying goroutine, through scratch the fork allocates the first
// time it meets one; a Router over fully compiled tables never does.
func (r *Router) node(v graph.NodeID) *nodeTable {
	if nt := r.t.nodes[v].Load(); nt != nil {
		return nt
	}
	if r.ix == nil {
		r.ix = make(vicinity.Index, len(r.t.nodes))
	}
	return r.t.node(v, r.ix)
}

// AppendRoute appends the route s ⇝ t to dst and reports deliverability —
// the zero-allocation fast path: with the touched shards compiled and
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
		if row[s] == graph.None {
			return dst, false // cut off from the landmark (s != t here)
		}
		for u := s; u != graph.None; u = row[u] {
			dst = append(dst, u)
		}
		return dst, true
	}
	ns := r.node(s)
	if i := ns.find(t); i >= 0 {
		return r.appendVicPath(dst, ns, i), true
	}
	// Later packets: t installed the exact reverse path when s is in t's
	// vicinity. The parent chain from s's entry up to owner t IS the
	// reversed PathTo(s) in forward order.
	if later {
		nt := r.node(t)
		if j := nt.find(s); j >= 0 {
			for ; j >= 0; j = nt.parent[j] {
				dst = append(dst, nt.ids[j])
			}
			return dst, true
		}
	}
	return r.appendLandmarkRoute(dst, s, t)
}

// appendVicPath appends the in-vicinity path owner ⇝ ids[i] (both ends
// included) to dst: the parent chain from entry i collects into the index
// stack, then unwinds owner-first — vicinity.Set.PathTo without the
// searches or the allocation.
func (r *Router) appendVicPath(dst []graph.NodeID, nt *nodeTable, i int32) []graph.NodeID {
	st := r.stack[:0]
	for j := i; j >= 0; j = nt.parent[j] {
		st = append(st, j)
	}
	for k := len(st) - 1; k >= 0; k-- {
		dst = append(dst, nt.ids[st[k]])
	}
	r.stack = st[:0]
	return dst
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
// the compiled row).
func (r *Router) reaches(lm, v graph.NodeID) bool {
	return v == lm || r.t.row(r.t.lmRowIdx[lm])[v] != graph.None
}

// appendLandmarkRoute is the landmark leg s ⇝ l_t ⇝ t with the
// To-Destination splice at the first en-route node whose vicinity knows
// t — core.NDDisco.leg under ShortcutToDestination over the compiled
// tables. The route is assembled in the private scratch (the splice
// truncates and regrows it) and copied to dst once final.
func (r *Router) appendLandmarkRoute(dst []graph.NodeID, s, t graph.NodeID) ([]graph.NodeID, bool) {
	tb := r.t
	lm := r.rehome(t)
	if lm == graph.None {
		return dst, false
	}
	row := tb.row(tb.lmRowIdx[lm])
	if s != lm && row[s] == graph.None {
		return dst, false
	}
	// dynamics.JoinPaths(PathFrom(lm, s), PathTo(lm, t)): the up-chain
	// from s, then the reversed down-chain from t with the joint node
	// deduplicated and immediate backtracks across it collapsed
	// (…x,lm,x… → …x…).
	route := r.route[:0]
	for u := s; u != graph.None; u = row[u] {
		route = append(route, u)
	}
	ch := r.chain[:0]
	for u := t; u != graph.None; u = row[u] {
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
		nu := r.node(u)
		if j := nu.find(t); j >= 0 {
			route = r.appendVicPath(route[:i], nu, j)
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
