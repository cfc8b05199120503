// Package sloppy implements the sloppy groups of §4.4: node v belongs to
// the group of nodes sharing the first k = floor(log2(sqrt(n/log2(n))))
// bits of h(v), so a group holds Θ(sqrt(n log n)) nodes w.h.p. (the number
// of groups is sqrt(n/log n); group size is n divided by that). The grouping
// is "sloppy" because k depends on each node's own estimate of n; the two
// properties the protocol relies on are (1) consistency — k changes only
// when n changes by a constant factor — and (2) graceful splits/merges —
// estimates within 2x of each other differ by at most one bit of k, so a
// "core group" G'(v) on which everyone agrees always exists.
package sloppy

import (
	"math"

	"disco/internal/graph"
	"disco/internal/names"
)

// K returns the group prefix width for a network-size estimate n:
// floor(log2(sqrt(n/log2(n)))), clamped to >= 0, so that the 2^k groups
// each hold Θ(sqrt(n log n)) nodes. (This matches the paper's Table 7
// accounting: on the 192,244-node router map Disco stores ~2973 more
// entries per node than NDDisco — one address per sloppy-group member,
// i.e. 64 groups, k = 6.)
func K(n float64) int {
	if n < 4 {
		return 0
	}
	v := math.Sqrt(n / math.Log2(n))
	if v < 1 {
		return 0
	}
	return int(math.Floor(math.Log2(v)))
}

// GroupID returns the k-bit group identifier of a hash (0 when k == 0, i.e.
// one global group).
func GroupID(h names.Hash, k int) uint64 { return names.PrefixBits(h, k) }

// SameGroup reports whether two hashes fall in the same k-bit group.
func SameGroup(a, b names.Hash, k int) bool { return GroupID(a, k) == GroupID(b, k) }

// View is one node's opinion of the grouping when nodes hold differing
// estimates of n (§4.4: "nodes will differ by at most one bit in the number
// of bits k"). Node v considers w a group-mate iff their hashes agree on
// v's own k_v bits.
type View struct {
	hashes []names.Hash
	kOf    []int
}

// BuildView constructs per-node views from per-node estimates of n.
func BuildView(hashes []names.Hash, nEst []float64) *View {
	kOf := make([]int, len(hashes))
	for i, n := range nEst {
		kOf[i] = K(n)
	}
	return &View{hashes: hashes, kOf: kOf}
}

// KOf returns node v's prefix width k_v.
func (v *View) KOf(n graph.NodeID) int { return v.kOf[n] }

// InGroup reports whether node v considers node w a member of G(v).
func (v *View) InGroup(n, w graph.NodeID) bool {
	return SameGroup(v.hashes[n], v.hashes[w], v.kOf[n])
}

// Mutual reports whether v and w both consider each other group-mates —
// the relation whose transitive closure around the hash ring forms the
// core group G'(v).
func (v *View) Mutual(n, w graph.NodeID) bool {
	return v.InGroup(n, w) && v.InGroup(w, n)
}
