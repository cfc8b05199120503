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

// OwnersOf returns the distinct landmarks owning any of an entire k-bit
// sloppy group's keyspace — the "predictable set of O(log n) landmarks"
// from which a node could download its group membership (§4.4 naive
// solution). groupID is the k-bit prefix.
func (db *DB) OwnersOf(groupID uint64, k int) []graph.NodeID {
	if k <= 0 || k > 64 {
		panic(fmt.Sprintf("resolve: bad group prefix width %d", k))
	}
	lo := names.Hash(groupID << (64 - uint(k)))
	hi := names.Hash((groupID + 1) << (64 - uint(k))) // 0 on wrap of the last group
	seen := map[graph.NodeID]bool{}
	var out []graph.NodeID
	add := func(lm graph.NodeID) {
		if !seen[lm] {
			seen[lm] = true
			out = append(out, lm)
		}
	}
	// All virtual points inside [lo, hi) own part of the range, plus the
	// successor of hi-boundary which owns the tail.
	i := sort.Search(len(db.points), func(i int) bool { return db.points[i].h >= lo })
	for ; i < len(db.points) && (hi == 0 || db.points[i].h < hi); i++ {
		add(db.points[i].lm)
	}
	add(db.OwnerOf(hi))
	slices.Sort(out)
	return out
}

// Load returns how many of the given keys each landmark owns.
func (db *DB) Load(keys []names.Hash) map[graph.NodeID]int {
	load := map[graph.NodeID]int{}
	for _, k := range keys {
		load[db.OwnerOf(k)]++
	}
	return load
}

// Imbalance returns max/mean owned keys across all landmarks on the ring
// (landmarks owning zero keys included in the mean).
func (db *DB) Imbalance(keys []names.Hash) float64 {
	load := db.Load(keys)
	lms := map[graph.NodeID]bool{}
	for _, p := range db.points {
		lms[p.lm] = true
	}
	max := 0
	//disco:orderinvariant max-fold over ints; max is commutative
	for _, c := range load {
		if c > max {
			max = c
		}
	}
	if len(lms) == 0 || len(keys) == 0 {
		return 0
	}
	mean := float64(len(keys)) / float64(len(lms))
	return float64(max) / mean
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

// SoftEntry is one soft-state binding in a landmark's table.
type SoftEntry struct {
	Value  interface{}
	Expiry float64
}

// SoftTable models the paper's soft state (§4.3): bindings refreshed every
// t minutes and timed out after 2t+1 minutes, under simulated time.
type SoftTable struct {
	TTL     float64 // expiry horizon (the paper's 2t+1 minutes)
	entries map[names.Name]SoftEntry
}

// NewSoftTable returns a table whose entries live for ttl time units after
// each Put.
func NewSoftTable(ttl float64) *SoftTable {
	return &SoftTable{TTL: ttl, entries: make(map[names.Name]SoftEntry)}
}

// Put inserts or refreshes a binding at simulated time now.
func (t *SoftTable) Put(now float64, name names.Name, value interface{}) {
	t.entries[name] = SoftEntry{Value: value, Expiry: now + t.TTL}
}

// Get returns the binding if present and unexpired at time now.
func (t *SoftTable) Get(now float64, name names.Name) (interface{}, bool) {
	e, ok := t.entries[name]
	if !ok || e.Expiry < now {
		if ok {
			delete(t.entries, name)
		}
		return nil, false
	}
	return e.Value, true
}

// Len returns the number of stored (possibly expired) entries.
func (t *SoftTable) Len() int { return len(t.entries) }

// Expire removes all entries expired at time now and returns how many.
func (t *SoftTable) Expire(now float64) int {
	n := 0
	for k, e := range t.entries {
		if e.Expiry < now {
			delete(t.entries, k)
			n++
		}
	}
	return n
}
