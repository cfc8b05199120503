// Package overlay implements Disco's address-dissemination overlay (§4.4):
// a Symphony-style [32] structure where each node links to its successor
// and predecessor in the circular hash order plus a small number of
// long-distance "fingers" drawn from a harmonic distribution inside its own
// sloppy group. Address announcements propagate through the overlay with a
// directional distance-vector rule — a node forwards an announcement only
// to overlay neighbors that keep it moving in the same direction through
// hash space — which eliminates count-to-infinity because the distance from
// the origin strictly increases hop by hop.
package overlay

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"

	"disco/internal/graph"
	"disco/internal/names"
	"disco/internal/sloppy"
)

// Net is the constructed overlay.
type Net struct {
	hashes  []names.Hash
	view    *sloppy.View
	fingers int

	byHash []graph.NodeID // all nodes sorted by (hash, id)
	rank   []int          // node -> index in byHash

	out  [][]graph.NodeID // outgoing links: succ, pred, fingers
	nbrs [][]graph.NodeID // undirected adjacency (out ∪ in), sorted
}

// Build constructs the overlay. Each node gets its ring successor and
// predecessor plus `fingers` outgoing finger links chosen by rng from the
// harmonic distribution over its own group's hash interval (§4.4, following
// [32]). Connections are bidirectional (TCP in the paper), so the
// dissemination adjacency is the undirected union.
func Build(hashes []names.Hash, view *sloppy.View, fingers int, rng *rand.Rand) *Net {
	n := len(hashes)
	net := &Net{hashes: hashes, view: view, fingers: fingers}
	net.byHash = make([]graph.NodeID, n)
	for i := range net.byHash {
		net.byHash[i] = graph.NodeID(i)
	}
	slices.SortFunc(net.byHash, func(a, b graph.NodeID) int {
		return cmp.Or(cmp.Compare(hashes[a], hashes[b]), cmp.Compare(a, b))
	})
	net.rank = make([]int, n)
	for i, v := range net.byHash {
		net.rank[v] = i
	}

	net.out = make([][]graph.NodeID, n)
	for v := 0; v < n; v++ {
		net.addRingLinks(graph.NodeID(v))
		net.addFingers(graph.NodeID(v), rng)
	}

	// Undirected union: each node's out- and in-links, sorted, duplicates
	// dropped, stored at its exact size.
	in := make([][]graph.NodeID, n)
	for v, out := range net.out {
		for _, w := range out {
			in[w] = append(in[w], graph.NodeID(v))
		}
	}
	net.nbrs = make([][]graph.NodeID, n)
	var union []graph.NodeID
	for v := range net.nbrs {
		union = append(append(union[:0], net.out[v]...), in[v]...)
		slices.Sort(union)
		net.nbrs[v] = slices.Clone(slices.Compact(union))
	}
	return net
}

func (n *Net) addRingLinks(v graph.NodeID) {
	count := len(n.byHash)
	if count < 2 {
		return
	}
	r := n.rank[v]
	succ := n.byHash[(r+1)%count]
	pred := n.byHash[(r-1+count)%count]
	n.out[v] = append(n.out[v], succ)
	if pred != succ {
		n.out[v] = append(n.out[v], pred)
	}
}

// groupRange returns the [lo, hi) index range in byHash of v's group as v
// sees it (a prefix interval, hence contiguous in hash order).
func (n *Net) groupRange(v graph.NodeID) (int, int) {
	k := n.view.KOf(v)
	if k <= 0 {
		return 0, len(n.byHash)
	}
	gid := names.PrefixBits(n.hashes[v], k)
	lo := sort.Search(len(n.byHash), func(i int) bool {
		return names.PrefixBits(n.hashes[n.byHash[i]], k) >= gid
	})
	hi := sort.Search(len(n.byHash), func(i int) bool {
		return names.PrefixBits(n.hashes[n.byHash[i]], k) > gid
	})
	return lo, hi
}

func (n *Net) addFingers(v graph.NodeID, rng *rand.Rand) {
	lo, hi := n.groupRange(v)
	if hi-lo < 3 {
		return // group too small for useful fingers
	}
	k := n.view.KOf(v)
	var span float64
	if k <= 0 {
		span = math.Exp2(64)
	} else {
		span = math.Exp2(float64(64 - k))
	}
	hv := n.hashes[v]
	// Symphony's harmonic distribution spans [span/m, span) — distances
	// below the typical member gap would just re-select the ring
	// neighbors, so the lower cutoff scales with group size m as in [32].
	m := float64(hi - lo)
	dmin := span / m
	for f := 0; f < n.fingers; f++ {
		var target graph.NodeID = graph.None
		for try := 0; try < 32 && target == graph.None; try++ {
			// Harmonic distance: pdf ∝ 1/d over [dmin, span).
			d := dmin * math.Exp(rng.Float64()*math.Log(span/dmin))
			a := float64(hv)
			if rng.Intn(2) == 0 {
				a += d
			} else {
				a -= d
			}
			// Must stay within the group interval.
			loHash := float64(n.hashes[n.byHash[lo]])
			hiHash := float64(n.hashes[n.byHash[hi-1]])
			if a < loHash || a > hiHash {
				continue
			}
			cand := n.nearestInRange(names.Hash(a), lo, hi)
			if cand != v {
				target = cand
			}
		}
		if target == graph.None {
			// Fall back to a uniform group member.
			cand := n.byHash[lo+rng.Intn(hi-lo)]
			if cand == v {
				continue
			}
			target = cand
		}
		n.out[v] = append(n.out[v], target)
	}
}

// nearestInRange finds the node within byHash[lo:hi] whose hash is closest
// to a (ring distance, ties to lower index).
func (n *Net) nearestInRange(a names.Hash, lo, hi int) graph.NodeID {
	i := sort.Search(hi-lo, func(i int) bool { return n.hashes[n.byHash[lo+i]] >= a }) + lo
	best := graph.None
	var bestD uint64 = math.MaxUint64
	for _, j := range []int{i - 1, i} {
		if j < lo || j >= hi {
			continue
		}
		v := n.byHash[j]
		if d := names.RingDist(n.hashes[v], a); d < bestD {
			best, bestD = v, d
		}
	}
	return best
}

// Neighbors returns N(v): the undirected overlay adjacency of v.
func (n *Net) Neighbors(v graph.NodeID) []graph.NodeID { return n.nbrs[v] }

// Degree returns |N(v)| — the per-node overlay state (the paper expects an
// average of ~4 with 1 finger and ~8 with 3, counting both directions).
func (n *Net) Degree(v graph.NodeID) int { return len(n.nbrs[v]) }

// AvgDegree returns the mean overlay degree.
func (n *Net) AvgDegree() float64 {
	total := 0
	for _, nb := range n.nbrs {
		total += len(nb)
	}
	return float64(total) / float64(len(n.nbrs))
}

// OutLinks returns v's outgoing links (successor, predecessor, fingers).
func (n *Net) OutLinks(v graph.NodeID) []graph.NodeID { return n.out[v] }

// before reports whether a precedes b in (hash, id) order — the linear
// order used by the directional propagation rule.
func (n *Net) before(a, b graph.NodeID) bool {
	if n.hashes[a] != n.hashes[b] {
		return n.hashes[a] < n.hashes[b]
	}
	return a < b
}

// Stats summarizes one address dissemination.
type Stats struct {
	Messages int // overlay messages sent
	Reached  int // distinct group members that received the announcement
	MaxHops  int // maximum overlay hops traveled by any delivered copy
	SumHops  int // total hops over all first deliveries (for the mean)
}

// Disseminate floods origin's address announcement through origin's group
// under the directional DV rule and returns message/coverage statistics.
// A node forwards an announcement on first receipt only (incremental DV
// updates), to group members in the direction away from the sender; the
// origin sends both ways.
func (n *Net) Disseminate(origin graph.NodeID) Stats {
	type item struct {
		node graph.NodeID
		down bool // announcement moving toward lower (hash, id)
		hops int
	}
	var st Stats
	seen := map[graph.NodeID]bool{origin: true}
	var queue []item
	for _, w := range n.nbrs[origin] {
		if !n.view.InGroup(origin, w) {
			continue
		}
		st.Messages++
		queue = append(queue, item{node: w, down: n.before(w, origin), hops: 1})
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if seen[it.node] {
			continue
		}
		seen[it.node] = true
		st.Reached++
		st.SumHops += it.hops
		if it.hops > st.MaxHops {
			st.MaxHops = it.hops
		}
		for _, w := range n.nbrs[it.node] {
			if !n.view.InGroup(it.node, w) {
				continue
			}
			// Continue in the same direction only.
			if it.down != n.before(w, it.node) {
				continue
			}
			st.Messages++
			if !seen[w] {
				queue = append(queue, item{node: w, down: it.down, hops: it.hops + 1})
			}
		}
	}
	return st
}

// DisseminateAll runs Disseminate from every node and aggregates, returning
// the totals plus the mean/max announcement travel distance (the §5
// "fingers" experiment: 5.77/24 with 1 finger vs 3.04/16 with 3 on the
// 1,024-node G(n,m) graph).
func (n *Net) DisseminateAll() (total Stats, meanHops float64) {
	for v := range n.hashes {
		s := n.Disseminate(graph.NodeID(v))
		total.Messages += s.Messages
		total.Reached += s.Reached
		total.SumHops += s.SumHops
		if s.MaxHops > total.MaxHops {
			total.MaxHops = s.MaxHops
		}
	}
	if total.Reached > 0 {
		meanHops = float64(total.SumHops) / float64(total.Reached)
	}
	return total, meanHops
}
