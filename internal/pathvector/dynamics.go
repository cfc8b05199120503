package pathvector

import (
	"fmt"
	"maps"
	"slices"

	"disco/internal/graph"
)

// Dynamics: the paper evaluates messaging "during initial convergence
// only, leaving continuous churn to future work" (§5). This file takes the
// first step past that: link failures with withdrawal-driven
// re-convergence, plus the periodic full-table Refresh that real routing
// protocols use and that the vicinity acceptance rule needs to recover
// destinations it dropped while they looked too far away (admission is
// monotone during initial convergence but not across failures).

// edgeKey canonically identifies an undirected node pair.
func edgeKey(u, v graph.NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// FailLink fails the link between u and v: both endpoints immediately drop
// every candidate learned from the dead neighbor and re-announce; no
// further messages traverse the link. Stale routes elsewhere that cross
// the link are withdrawn transitively as the re-announcements propagate —
// standard path-vector dynamics, loop-free by the path check. Call between
// engine runs (or from a scheduled event), then Run the engine again to
// re-converge. Failing a nonexistent (or already-failed) link is a caller
// error, returned rather than panicked, matching the snapshot layer's
// Build/ApplyFailures convention.
func (p *Protocol) FailLink(u, v graph.NodeID) error {
	if u == v || int(u) < 0 || int(v) < 0 || int(u) >= p.g.N() || int(v) >= p.g.N() || p.g.PortOf(u, v) < 0 {
		return fmt.Errorf("pathvector: no link %d-%d to fail", u, v)
	}
	if !p.LinkAlive(u, v) {
		return fmt.Errorf("pathvector: link %d-%d already failed", u, v)
	}
	if p.dead == nil {
		p.dead = make(map[uint64]bool)
	}
	p.dead[edgeKey(u, v)] = true
	p.dropNeighbor(p.nodes[u], v)
	p.dropNeighbor(p.nodes[v], u)
	return nil
}

// LinkAlive reports whether the link between u and v is usable.
func (p *Protocol) LinkAlive(u, v graph.NodeID) bool {
	return p.dead == nil || !p.dead[edgeKey(u, v)]
}

// dropNeighbor removes every candidate nd learned via the dead neighbor
// and reselects the affected destinations, in ID order: reselection can
// admit or evict vicinity members, so the order reaches the converged
// state and message counts. The affected set is fixed before the first
// reselection, which may evict (and so forget) a later one.
func (p *Protocol) dropNeighbor(nd *node, via graph.NodeID) {
	dsts := slices.DeleteFunc(nd.candDsts(), func(dst graph.NodeID) bool {
		return !slices.ContainsFunc(nd.cand[dst], func(c cand) bool { return c.via == via })
	})
	for _, dst := range dsts {
		nd.dropCand(dst, via)
		p.reselect(nd, dst)
	}
}

// Refresh makes every node re-announce its full routing table, modeling
// one round of the periodic refresh real protocols run. After failures
// this restores the vicinity invariant: dropped-but-now-qualifying
// destinations get re-offered and re-admitted, and members whose distance
// grew get re-evaluated against them.
func (p *Protocol) Refresh() {
	for _, nd := range p.nodes {
		for _, dst := range slices.Sorted(maps.Keys(nd.best)) {
			p.markDirty(nd, dst)
		}
	}
}

// RefreshUntilStable runs periodic refresh rounds (Refresh + engine run to
// quiescence) until a round leaves every routing table unchanged, and
// returns the number of rounds used. A single round can miss: an offer
// judged against a transiently stale table is rejected and, with purely
// triggered updates, never repeated — which is exactly why deployed
// protocols refresh periodically. It panics if maxRounds rounds do not
// reach a fixpoint (the vicinity rule converges in a handful).
func (p *Protocol) RefreshUntilStable(maxRounds int) int {
	prev := p.tableFingerprint()
	for r := 1; r <= maxRounds; r++ {
		p.Refresh()
		if _, q := p.eng.Run(0); !q {
			panic("pathvector: refresh round did not quiesce")
		}
		cur := p.tableFingerprint()
		if cur == prev {
			return r
		}
		prev = cur
	}
	panic(fmt.Sprintf("pathvector: no fixpoint after %d refresh rounds", maxRounds))
}

// tableFingerprint hashes all best tables: each (node, dst, dist) entry is
// hashed independently and the results are summed.
func (p *Protocol) tableFingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	var total uint64
	for v, nd := range p.nodes {
		for _, dst := range slices.Sorted(maps.Keys(nd.best)) {
			h := uint64(offset)
			for _, x := range [3]uint64{uint64(v), uint64(dst), uint64(int64(nd.best[dst].dist * (1 << 20)))} {
				for i := 0; i < 8; i++ {
					h ^= (x >> (8 * uint(i))) & 0xff
					h *= prime
				}
			}
			total += h
		}
	}
	return total
}

// PruneStale drops, at every node, any best route whose path crosses a
// dead link, forcing reselection from surviving candidates. Real nodes
// notice this lazily (data-plane failure or withdrawal); calling it after
// FailLink models immediate detection and keeps re-convergence
// deterministic in tests.
func (p *Protocol) PruneStale() {
	for _, nd := range p.nodes {
		// Destination order: reselection has vicinity side effects, so
		// the order reaches re-convergence.
		stale := slices.DeleteFunc(slices.Sorted(maps.Keys(nd.best)), func(dst graph.NodeID) bool {
			return p.pathAlive(nd.best[dst].path)
		})
		for _, dst := range stale {
			// Drop every candidate with a dead path, then reselect.
			nd.setCands(dst, slices.DeleteFunc(nd.cand[dst], func(c cand) bool { return !p.pathAlive(c.path) }))
			p.reselect(nd, dst)
		}
	}
}

func (p *Protocol) pathAlive(path []graph.NodeID) bool {
	for i := 1; i < len(path); i++ {
		if !p.LinkAlive(path[i-1], path[i]) {
			return false
		}
	}
	return true
}
