// Package landmark implements Disco's landmark selection (§4.2): each node
// decides locally and independently to become a landmark with probability
// p = sqrt(log n / n), giving Θ(sqrt(n log n)) landmarks w.h.p.
//
// Selection is derandomized through the node's name: the "coin" is the
// name's hash mapped to [0,1). This keeps every simulation reproducible and
// naturally yields nested landmark sets as n grows (p shrinks, so landmarks
// only demote), which is exactly the low-churn behaviour the paper wants.
// Throughout this repository log means log2.
package landmark

import (
	"math"

	"disco/internal/graph"
	"disco/internal/names"
)

// Prob returns the landmark self-selection probability sqrt(log2(n)/n) for
// an estimated network size n (clamped to [0,1]).
func Prob(n float64) float64 {
	if n <= 2 {
		return 1
	}
	p := math.Sqrt(math.Log2(n) / n)
	if p > 1 {
		return 1
	}
	return p
}

// coin maps a name to a uniform value in [0,1), independent of the routing
// hash h(v) (different domain-separation tag).
func coin(name names.Name) float64 {
	h := names.HashOf("landmark-coin|" + name)
	return float64(h) / math.Exp2(64)
}

// IsLandmark reports whether the named node elects itself a landmark under
// network-size estimate nEst.
func IsLandmark(name names.Name, nEst float64) bool {
	return coin(name) < Prob(nEst)
}

// SelectPerNode returns the landmark set for nodes 0..len(nodeNames)-1
// under per-node estimates of n (§4.1: estimates may differ across nodes),
// in ascending node order. Node i uses nEst[i] for its own coin flip. If no
// node self-selects (possible only for tiny or adversarial inputs), the
// node with the smallest coin is forced to be a landmark so the set is
// never empty — every node must have a nearest landmark for addresses to
// exist.
func SelectPerNode(nodeNames []names.Name, nEst []float64) []graph.NodeID {
	var out []graph.NodeID
	for i, nm := range nodeNames {
		if IsLandmark(nm, nEst[i]) {
			out = append(out, graph.NodeID(i))
		}
	}
	if len(out) == 0 && len(nodeNames) > 0 {
		best, bestCoin := 0, math.Inf(1)
		for i, nm := range nodeNames {
			if c := coin(nm); c < bestCoin {
				best, bestCoin = i, c
			}
		}
		out = append(out, graph.NodeID(best))
	}
	return out
}
