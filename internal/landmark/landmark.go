// Package landmark implements Disco's landmark selection (§4.2): each node
// decides locally and independently to become a landmark with probability
// p = sqrt(log n / n), giving Θ(sqrt(n log n)) landmarks w.h.p., plus the
// churn-amortization rule (a node flips its landmark status only when its
// estimate of n has changed by at least a factor of 2 since its last flip).
//
// Selection is derandomized through the node's name: the "coin" is the
// name's hash mapped to [0,1). This keeps every simulation reproducible and
// naturally yields nested landmark sets as n grows (p shrinks, so landmarks
// only demote), which is exactly the low-churn behaviour the paper wants.
// Throughout this repository log means log2.
package landmark

import (
	"math"
	"slices"

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

// Select returns the landmark set for nodes 0..len(nodeNames)-1 under a
// common network-size estimate nEst, in ascending node order. If no node
// self-selects (possible only for tiny or adversarial inputs), the node
// with the smallest coin is forced to be a landmark so the set is never
// empty — every node must have a nearest landmark for addresses to exist.
func Select(nodeNames []names.Name, nEst float64) []graph.NodeID {
	var out []graph.NodeID
	for i, nm := range nodeNames {
		if IsLandmark(nm, nEst) {
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
	slices.Sort(out)
	return out
}

// SelectPerNode is Select under per-node estimates of n (§4.1: estimates
// come from synopsis diffusion and may differ across nodes). Node i uses
// nEst[i] for its own coin flip.
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

// Tracker implements the churn-amortization rule for one node: "a node v
// only flips its landmark status if n has changed by at least a factor 2
// since the last time v changed its status" (§4.2). This amortizes landmark
// churn over Ω(n) joins or leaves.
type Tracker struct {
	name      names.Name
	status    bool
	lastFlipN float64
}

// NewTracker initializes the node's status from the initial estimate.
func NewTracker(name names.Name, nEst float64) *Tracker {
	return &Tracker{name: name, status: IsLandmark(name, nEst), lastFlipN: nEst}
}

// IsLandmark returns the node's current landmark status.
func (t *Tracker) IsLandmark() bool { return t.status }

// Update feeds a new estimate of n; the status is re-evaluated only when the
// estimate moved by >= 2x (up or down) since the last flip. It returns true
// if the status changed.
func (t *Tracker) Update(nEst float64) bool {
	if nEst < 2*t.lastFlipN && nEst > t.lastFlipN/2 {
		return false
	}
	want := IsLandmark(t.name, nEst)
	if want == t.status {
		// Re-evaluated without a flip: the amortization clock keeps
		// running from the old anchor so a later small change can still
		// trigger the flip once it accumulates to 2x.
		return false
	}
	t.status = want
	t.lastFlipN = nEst
	return true
}
