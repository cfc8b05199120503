// Package resolve implements the landmark-based name-resolution database of
// §4.3: a consistent-hashing [22] database over the globally known set of
// landmarks. Every node inserts its own (name → address) binding at the
// landmark owning the key h(name); any node can query it. This guarantees
// reachability but not stretch — the paper uses it as the bootstrap for
// overlay fingers (§4.4) and as the fallback when the sloppy-group lookup
// misses. Multiple hash functions per landmark (virtual points) reduce
// consistent hashing's Θ(log n) load imbalance (§4.5 state proof).
package resolve

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"disco/internal/graph"
	"disco/internal/names"
)

// DB is a consistent-hashing ring over landmarks.
type DB struct {
	points []point
	vnodes int
}

type point struct {
	h  names.Hash
	lm graph.NodeID
}

// New builds the ring. lmName gives each landmark's flat name (virtual
// points are derived from it); vnodes is the number of hash functions
// (virtual points) per landmark, >= 1.
func New(landmarks []graph.NodeID, lmName func(graph.NodeID) names.Name, vnodes int) *DB {
	if len(landmarks) == 0 {
		panic("resolve: no landmarks")
	}
	if vnodes < 1 {
		panic("resolve: vnodes must be >= 1")
	}
	db := &DB{vnodes: vnodes}
	for _, lm := range landmarks {
		for i := 0; i < vnodes; i++ {
			h := names.HashOf(names.Name(fmt.Sprintf("resolve|%d|%s", i, lmName(lm))))
			db.points = append(db.points, point{h: h, lm: lm})
		}
	}
	slices.SortFunc(db.points, func(a, b point) int {
		return cmp.Or(cmp.Compare(a.h, b.h), cmp.Compare(a.lm, b.lm))
	})
	return db
}

// OwnerOf returns the landmark that stores the binding for key: the first
// virtual point clockwise of the key on the ring.
func (db *DB) OwnerOf(key names.Hash) graph.NodeID {
	i := sort.Search(len(db.points), func(i int) bool { return db.points[i].h >= key })
	if i == len(db.points) {
		i = 0 // wrap
	}
	return db.points[i].lm
}

// Load returns, indexed by node, how many of the given keys each node
// owns: zero for non-landmarks. n bounds the node IDs (every landmark is
// below n).
func (db *DB) Load(n int, keys []names.Hash) []int {
	load := make([]int, n)
	for _, k := range keys {
		load[db.OwnerOf(k)]++
	}
	return load
}

// Imbalance returns max/mean owned keys across all landmarks on the ring
// (landmarks owning zero keys included in the mean).
func (db *DB) Imbalance(keys []names.Hash) float64 {
	lms := db.Landmarks()
	if len(keys) == 0 {
		return 0
	}
	load := db.Load(int(lms[len(lms)-1])+1, keys)
	mean := float64(len(keys)) / float64(len(lms))
	return float64(slices.Max(load)) / mean
}

// Landmarks returns the distinct landmarks on the ring, ascending.
func (db *DB) Landmarks() []graph.NodeID {
	seen := map[graph.NodeID]bool{}
	var out []graph.NodeID
	for _, p := range db.points {
		if !seen[p.lm] {
			seen[p.lm] = true
			out = append(out, p.lm)
		}
	}
	slices.Sort(out)
	return out
}
