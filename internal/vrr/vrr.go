// Package vrr implements the Virtual Ring Routing baseline [9] (§3, §5):
// nodes form a virtual ring in identifier (hash) space; each node maintains
// virtual-neighbor set ("vset") paths to its r closest ring neighbors, set
// up hop-by-hop through the physical topology using whatever forwarding
// state already exists; every node on a vset path stores a forwarding entry
// for it. Packets are routed greedily toward the endpoint whose identifier
// is closest to the destination's. VRR needs no landmarks and no resolution
// step, but provides no bound on state (Θ(n^2) worst case — paths
// concentrate on central nodes) or stretch, which is what Figs. 4 and 5
// demonstrate.
//
// Converged VRR state depends on join order; per the paper we start with a
// seed node and grow the joined set outward over physical links (BFS
// order). When a later join displaces a node from a vset on both ends, the
// displaced path is torn down, as in VRR's repair.
package vrr

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"

	"disco/internal/graph"
	"disco/internal/names"
	"disco/internal/pathtree"
	"disco/internal/static"
)

// VRR is the converged VRR network. During construction, forwarding state
// lives in per-node maps (joins mutate them); once every node has joined,
// seal() freezes the tables into flat, index-addressed arrays — one
// contiguous entry slice plus per-node offsets — which every Fork() shares
// read-only and iterates allocation-free in deterministic order.
type VRR struct {
	Env *static.Env
	R   int // vset size (r=4 in the paper's evaluation)

	order  []graph.NodeID // join order (BFS from seed)
	ring   []graph.NodeID // joined nodes sorted by (hash, id)
	tables []map[int]entry
	paths  map[int]*vpath
	vsets  []map[graph.NodeID]int // node -> (peer -> path id)
	nextID int

	// Sealed converged state: node u's forwarding entries are
	// flat[off[u]:off[u+1]] and its vset has voff[u+1]-voff[u] peers.
	sealed bool
	flat   []entry
	off    []int32
	voff   []int32

	// dest is the per-fork shortest-path scratch behind dead-end recovery
	// and ShortestDist; allocated on first use.
	dest *pathtree.Lazy

	numPaths int // path count preserved across Compact

	Stuck int // greedy dead-ends resolved by a physical-hop fallback
}

type vpath struct {
	id    int
	a, b  graph.NodeID
	nodes []graph.NodeID // a ⇝ b through the physical network
}

type entry struct {
	a, b         graph.NodeID
	toward, back graph.NodeID // next hop toward b / toward a (None at ends)
}

// New builds the converged VRR network over env with vset size r.
func New(env *static.Env, r int, seed graph.NodeID) *VRR {
	if r < 2 || r%2 != 0 {
		panic(fmt.Sprintf("vrr: r must be a positive even number, got %d", r))
	}
	v := &VRR{
		Env:    env,
		R:      r,
		tables: make([]map[int]entry, env.N()),
		paths:  make(map[int]*vpath),
		vsets:  make([]map[graph.NodeID]int, env.N()),
	}
	for i := range v.tables {
		v.tables[i] = make(map[int]entry)
		v.vsets[i] = make(map[graph.NodeID]int)
	}
	v.order = bfsOrder(env.G, seed)
	for _, x := range v.order {
		v.join(x)
	}
	v.seal()
	return v
}

// seal freezes the converged per-node maps into the flat index-addressed
// arrays that forks share. Entries are sorted by (a, b, toward, back) —
// the order is deterministic by construction, and nextHop's tie-break
// makes forwarding independent of iteration order anyway.
func (v *VRR) seal() {
	n := v.Env.N()
	v.off = make([]int32, n+1)
	v.voff = make([]int32, n+1)
	total, vtotal := 0, 0
	for u := 0; u < n; u++ {
		v.off[u] = int32(total)
		v.voff[u] = int32(vtotal)
		total += len(v.tables[u])
		vtotal += len(v.vsets[u])
	}
	v.off[n] = int32(total)
	v.voff[n] = int32(vtotal)
	v.flat = make([]entry, 0, total)
	for u := 0; u < n; u++ {
		start := len(v.flat)
		for _, id := range slices.Sorted(maps.Keys(v.tables[u])) {
			v.flat = append(v.flat, v.tables[u][id])
		}
		win := v.flat[start:]
		slices.SortFunc(win, func(a, b entry) int {
			return cmp.Or(cmp.Compare(a.a, b.a), cmp.Compare(a.b, b.b),
				cmp.Compare(a.toward, b.toward), cmp.Compare(a.back, b.back))
		})
	}
	v.numPaths = len(v.paths)
	v.sealed = true
}

// Compact drops the construction-time per-node maps and path records,
// leaving only the sealed flat arrays — halving the converged footprint
// of a long-lived (memoized) instance. Irreversible: the ring is closed,
// so no further joins can happen. Tests that check construction
// invariants simply skip calling it.
func (v *VRR) Compact() {
	if !v.sealed {
		panic("vrr: Compact before seal")
	}
	v.tables, v.vsets, v.paths = nil, nil, nil
}

func bfsOrder(g *graph.Graph, seed graph.NodeID) []graph.NodeID {
	n := g.N()
	seen := make([]bool, n)
	order := make([]graph.NodeID, 0, n)
	queue := []graph.NodeID{seed}
	seen[seed] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, e := range g.Neighbors(u) {
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	if len(order) != n {
		panic("vrr: graph not connected")
	}
	return order
}

// ringLess orders nodes on the virtual ring.
func (v *VRR) ringLess(a, b graph.NodeID) bool {
	ha, hb := v.Env.HashOf(a), v.Env.HashOf(b)
	if ha != hb {
		return ha < hb
	}
	return a < b
}

// ringInsert adds x to the sorted joined ring.
func (v *VRR) ringInsert(x graph.NodeID) {
	i := sort.Search(len(v.ring), func(i int) bool { return !v.ringLess(v.ring[i], x) })
	v.ring = append(v.ring, 0)
	copy(v.ring[i+1:], v.ring[i:])
	v.ring[i] = x
}

// wantVSet returns x's ideal vset on the current ring: r/2 successors and
// r/2 predecessors.
func (v *VRR) wantVSet(x graph.NodeID) []graph.NodeID {
	m := len(v.ring)
	if m <= 1 {
		return nil
	}
	i := sort.Search(m, func(i int) bool { return !v.ringLess(v.ring[i], x) })
	if i >= m || v.ring[i] != x {
		panic("vrr: node not on ring")
	}
	half := v.R / 2
	seen := map[graph.NodeID]bool{x: true}
	var out []graph.NodeID
	for d := 1; d <= half; d++ {
		s := v.ring[(i+d)%m]
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
		p := v.ring[(i-d%m+m)%m]
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

func (v *VRR) join(x graph.NodeID) {
	v.ringInsert(x)
	for _, y := range v.wantVSet(x) {
		if _, ok := v.vsets[x][y]; ok {
			continue
		}
		v.setupPath(x, y)
	}
	// Repair: ring neighbors of x may have had members displaced. A path
	// is torn down only when neither endpoint wants it anymore.
	m := len(v.ring)
	i := sort.Search(m, func(i int) bool { return !v.ringLess(v.ring[i], x) })
	for d := -v.R; d <= v.R; d++ {
		z := v.ring[((i+d)%m+m)%m]
		if z == x {
			continue
		}
		want := map[graph.NodeID]bool{}
		for _, w := range v.wantVSet(z) {
			want[w] = true
		}
		for _, peer := range slices.Sorted(maps.Keys(v.vsets[z])) {
			if want[peer] {
				continue
			}
			// z no longer wants the path; tear down if peer agrees.
			peerWants := false
			for _, w := range v.wantVSet(peer) {
				if w == z {
					peerWants = true
					break
				}
			}
			if !peerWants {
				v.teardown(v.vsets[z][peer])
			}
		}
	}
}

// setupPath routes a setup message x ⇝ y greedily through existing state
// and installs forwarding entries along the traversed path.
func (v *VRR) setupPath(x, y graph.NodeID) {
	nodes, ok := v.greedyPath(x, y)
	if !ok {
		return
	}
	id := v.nextID
	v.nextID++
	p := &vpath{id: id, a: x, b: y, nodes: nodes}
	v.paths[id] = p
	for i, u := range nodes {
		e := entry{a: x, b: y, toward: graph.None, back: graph.None}
		if i+1 < len(nodes) {
			e.toward = nodes[i+1]
		}
		if i > 0 {
			e.back = nodes[i-1]
		}
		v.tables[u][id] = e
	}
	v.vsets[x][y] = id
	v.vsets[y][x] = id
}

func (v *VRR) teardown(id int) {
	p, ok := v.paths[id]
	if !ok {
		return
	}
	for _, u := range p.nodes {
		delete(v.tables[u], id)
	}
	delete(v.vsets[p.a], p.b)
	delete(v.vsets[p.b], p.a)
	delete(v.paths, id)
}

// joinedNeighbors returns u's physical neighbors that are on the ring.
// After sealing every node has joined, so this is the full adjacency list.
func (v *VRR) joinedNeighbors(u graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, e := range v.Env.G.Neighbors(u) {
		j := sort.Search(len(v.ring), func(i int) bool { return !v.ringLess(v.ring[i], e.To) })
		if j < len(v.ring) && v.ring[j] == e.To {
			out = append(out, e.To)
		}
	}
	return out
}

// nextHop implements VRR forwarding at u toward the identifier of t: pick
// the known endpoint (vpath endpoints through u, physical joined
// neighbors, or u itself) with the ring-closest identifier and take the
// recorded next hop toward it. Ties extend to the via node so the choice
// is independent of table-map iteration order (two vpaths through u can
// share an endpoint but differ in next hop).
func (v *VRR) nextHop(u, t graph.NodeID) (graph.NodeID, bool) {
	target := v.Env.HashOf(t)
	bestEp := u
	bestVia := graph.None
	bestD := names.RingDist(v.Env.HashOf(u), target)
	consider := func(ep, via graph.NodeID) {
		d := names.RingDist(v.Env.HashOf(ep), target)
		if d < bestD || (d == bestD && (ep < bestEp || (ep == bestEp && via < bestVia))) {
			bestEp, bestVia, bestD = ep, via, d
		}
	}
	if v.sealed {
		// Converged fast path: iterate the shared flat entry window and the
		// full adjacency list (every node has joined) — no map iteration,
		// no per-call allocation.
		for _, e := range v.flat[v.off[u]:v.off[u+1]] {
			if e.toward != graph.None {
				consider(e.b, e.toward)
			}
			if e.back != graph.None {
				consider(e.a, e.back)
			}
		}
		for _, e := range v.Env.G.Neighbors(u) {
			consider(e.To, e.To)
		}
	} else {
		for _, id := range slices.Sorted(maps.Keys(v.tables[u])) {
			e := v.tables[u][id]
			if e.toward != graph.None {
				consider(e.b, e.toward)
			}
			if e.back != graph.None {
				consider(e.a, e.back)
			}
		}
		for _, nb := range v.joinedNeighbors(u) {
			consider(nb, nb)
		}
	}
	if bestVia == graph.None {
		return graph.None, false // u itself is closest: greedy dead-end
	}
	return bestVia, true
}

// greedyPath routes from x to y through current forwarding state. On a
// greedy dead-end, or if the walk fails to terminate within a step budget
// (possible only after a dead-end hop broke VRR's progress invariant), the
// remainder is completed along the true shortest path; both cases are
// counted in Stuck. Revisits trim the enclosed cycle so returned paths are
// simple.
func (v *VRR) greedyPath(x, y graph.NodeID) ([]graph.NodeID, bool) {
	limit := 4*v.Env.N() + 16
	nodes := []graph.NodeID{x}
	cur := x
	for steps := 0; cur != y; steps++ {
		nh, ok := v.nextHop(cur, y)
		if !ok || steps > limit {
			v.Stuck++
			rest := v.destTree(y).PathFrom(cur) // cur ⇝ y
			for _, u := range rest[1:] {
				nodes = appendTrim(nodes, u)
			}
			return nodes, true
		}
		nodes = appendTrim(nodes, nh)
		cur = nh
	}
	return nodes, true
}

// appendTrim appends nh to the walk, cutting any cycle if nh was already
// visited.
func appendTrim(nodes []graph.NodeID, nh graph.NodeID) []graph.NodeID {
	for i, seen := range nodes {
		if seen == nh {
			return nodes[:i+1]
		}
	}
	return append(nodes, nh)
}

// Fork returns a concurrency view of v for one worker of a parallel
// sweep: the converged ring and the sealed flat forwarding/vset arrays are
// shared read-only; only the Stuck counter and the shortest-path scratch are
// private. Sum fork Stuck counters to recover the serial total.
func (v *VRR) Fork() *VRR {
	f := *v
	f.Stuck, f.dest = 0, nil
	return &f
}

// destTree returns the fork's shortest-path scratch bound to root,
// allocating it on first use.
func (v *VRR) destTree(root graph.NodeID) *pathtree.Lazy {
	if v.dest == nil {
		v.dest = pathtree.NewLazy(v.Env.G)
	}
	v.dest.Bind(root)
	return v.dest
}

// Route returns the packet route from s to t (VRR has no first/later
// distinction: every packet routes greedily on identifiers).
func (v *VRR) Route(s, t graph.NodeID) []graph.NodeID {
	p, _ := v.greedyPath(s, t)
	return p
}

// RouteLen returns the weighted length of a node path.
func (v *VRR) RouteLen(p []graph.NodeID) float64 { return v.Env.G.PathLength(p) }

// ShortestDist returns d(s,t).
func (v *VRR) ShortestDist(s, t graph.NodeID) float64 { return v.destTree(t).Dist(s) }

// StateEntries returns per-node entry counts: one per vpath through the
// node plus physical adjacency.
func (v *VRR) StateEntries() []int {
	out := make([]int, v.Env.N())
	for u := range out {
		if v.sealed {
			out[u] = int(v.off[u+1]-v.off[u]) + v.Env.G.Degree(graph.NodeID(u))
		} else {
			out[u] = len(v.tables[u]) + v.Env.G.Degree(graph.NodeID(u))
		}
	}
	return out
}

// NumPaths returns the number of live vset paths.
func (v *VRR) NumPaths() int {
	if v.sealed {
		return v.numPaths
	}
	return len(v.paths)
}

// VSetSize returns |vset(u)|.
func (v *VRR) VSetSize(u graph.NodeID) int {
	if v.sealed {
		return int(v.voff[u+1] - v.voff[u])
	}
	return len(v.vsets[u])
}
