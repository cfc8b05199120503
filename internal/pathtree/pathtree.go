// Package pathtree provides shortest-path tree views in three flavours:
// materialized full trees in a capped per-worker Cache (internal/tzk), a
// concurrency-safe Shared bank for rarely-needed roots that forks of one
// protocol instance compute at most once across all workers (internal/vrr's
// dead-end recovery), and a zero-materialization Lazy view over reusable
// Dijkstra scratch for roots queried in runs — stretch denominators,
// per-pair destination trees — which is what everything else uses.
package pathtree

import (
	"sync"

	"disco/internal/graph"
)

// Tree is a full single-source shortest-path tree.
type Tree struct {
	Root   graph.NodeID
	dist   []float64
	parent []graph.NodeID
}

// Dist returns d(Root, v) (+Inf if unreachable).
func (t *Tree) Dist(v graph.NodeID) float64 { return t.dist[v] }

// Parent returns v's predecessor on the path Root ⇝ v, or graph.None.
func (t *Tree) Parent(v graph.NodeID) graph.NodeID { return t.parent[v] }

// newTree materializes the tree of a finished full run of sp from root.
func newTree(sp *graph.SSSP, root graph.NodeID) *Tree {
	n := sp.Graph().N()
	t := &Tree{Root: root, dist: make([]float64, n), parent: make([]graph.NodeID, n)}
	for v := range t.dist {
		t.dist[v] = sp.Dist(graph.NodeID(v))
		t.parent[v] = sp.Parent(graph.NodeID(v))
	}
	return t
}

// PathTo returns Root ⇝ v (both endpoints included).
func (t *Tree) PathTo(v graph.NodeID) []graph.NodeID {
	var rev []graph.NodeID
	for u := v; u != graph.None; u = t.parent[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// PathFrom returns v ⇝ Root — the same tree path walked the other way,
// valid because graphs here are undirected (the paper's §6 route
// reversibility assumption).
func (t *Tree) PathFrom(v graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for u := v; u != graph.None; u = t.parent[u] {
		out = append(out, u)
	}
	return out
}

// Cache memoizes trees by root with FIFO eviction.
type Cache struct {
	s     *graph.SSSP
	cap   int
	trees map[graph.NodeID]*Tree
	order []graph.NodeID
}

// NewCache returns a cache over g holding at most capacity trees.
func NewCache(g *graph.Graph, capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		s:     graph.NewSSSP(g),
		cap:   capacity,
		trees: make(map[graph.NodeID]*Tree),
	}
}

// Tree returns the shortest-path tree rooted at root, computing it on a
// miss (one full Dijkstra).
func (c *Cache) Tree(root graph.NodeID) *Tree {
	if t, ok := c.trees[root]; ok {
		return t
	}
	c.s.Run(root)
	t := newTree(c.s, root)
	if len(c.order) >= c.cap {
		evict := c.order[0]
		c.order = c.order[1:]
		delete(c.trees, evict)
	}
	c.trees[root] = t
	c.order = append(c.order, root)
	return t
}

// Cap returns the cache capacity.
func (c *Cache) Cap() int { return c.cap }

// Lazy is a single-root shortest-path view backed by one reusable SSSP
// scratch: Bind(root) runs Dijkstra only when the root changes, and queries
// read the scratch directly, so no per-root Tree is ever materialized. It
// fits roots that are queried in runs (one destination per sampled pair)
// where a Cache would allocate O(n) per root for a single lookup. Not safe
// for concurrent use; one per worker, shareable between the protocol forks
// of that worker so they reuse each other's Dijkstra runs.
type Lazy struct {
	s     *graph.SSSP
	root  graph.NodeID
	bound bool
}

// NewLazy returns a lazy view over g with no root bound yet.
func NewLazy(g *graph.Graph) *Lazy {
	return &Lazy{s: graph.NewSSSP(g), root: graph.None}
}

// Bind makes root the current tree root, running one full Dijkstra if the
// root actually changed.
func (l *Lazy) Bind(root graph.NodeID) {
	if l.bound && l.root == root {
		return
	}
	l.s.Run(root)
	l.root = root
	l.bound = true
}

// Root returns the currently bound root (graph.None before the first Bind).
func (l *Lazy) Root() graph.NodeID {
	if !l.bound {
		return graph.None
	}
	return l.root
}

// Dist returns d(root, v) for the bound root (+Inf if unreachable).
func (l *Lazy) Dist(v graph.NodeID) float64 { return l.s.Dist(v) }

// Parent returns v's predecessor toward the bound root, or graph.None.
func (l *Lazy) Parent(v graph.NodeID) graph.NodeID { return l.s.Parent(v) }

// PathFrom returns v ⇝ root for the bound root (cf. Tree.PathFrom).
func (l *Lazy) PathFrom(v graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for u := v; u != graph.None; u = l.s.Parent(u) {
		out = append(out, u)
	}
	return out
}

// PathTo returns root ⇝ v for the bound root (cf. Tree.PathTo).
func (l *Lazy) PathTo(v graph.NodeID) []graph.NodeID {
	return l.s.PathTo(v)
}

// Shared is a concurrency-safe memoizing tree bank: the first caller to ask
// for a root computes the tree, every later caller (on any goroutine) gets
// the same materialized tree. Trees are pure functions of the graph, so a
// benign double-compute under contention yields identical values. Use it
// for rarely-hit roots that all forks of one instance should pay for at
// most once (e.g. VRR's greedy dead-end recovery); for per-pair roots use
// Lazy instead, since Shared retains every tree it ever built.
type Shared struct {
	g  *graph.Graph
	mu sync.RWMutex
	m  map[graph.NodeID]*Tree
}

// NewShared returns an empty bank over g.
func NewShared(g *graph.Graph) *Shared {
	return &Shared{g: g, m: make(map[graph.NodeID]*Tree)}
}

// Tree returns the shortest-path tree rooted at root, computing it at most
// once per bank (modulo benign races).
func (b *Shared) Tree(root graph.NodeID) *Tree {
	b.mu.RLock()
	t := b.m[root]
	b.mu.RUnlock()
	if t != nil {
		return t
	}
	// Compute outside the lock: misses are rare and a stall here would
	// serialize every worker behind one Dijkstra.
	s := graph.NewSSSP(b.g)
	s.Run(root)
	t = newTree(s, root)
	b.mu.Lock()
	if prev, ok := b.m[root]; ok {
		t = prev // lost the race; keep the first tree so pointers stay stable
	} else {
		b.m[root] = t
	}
	b.mu.Unlock()
	return t
}

// Len returns the number of banked trees.
func (b *Shared) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.m)
}
