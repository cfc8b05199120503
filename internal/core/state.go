package core

import (
	"slices"

	"disco/internal/graph"
	"disco/internal/names"
	"disco/internal/parallel"
	"disco/internal/static"
)

// resolutionLoad computes, for every node, how many resolution entries it
// stores (zero for non-landmarks): the consistent-hashing share of all n
// name→address bindings (§4.3).
func (d *Disco) resolutionLoad() []int {
	return d.DB.Load(d.Env().N(), d.Env().Hashes)
}

// NDStateBreakdown returns node v's NDDisco state given the precomputed
// resolution load vector (from Disco.resolutionLoad or equivalent).
func ndStateBreakdown(r *NDDisco, v graph.NodeID, resLoad []int) static.StateBreakdown {
	nLM := len(r.Env.Landmarks)
	// Forwarding labels are needed only for next hops actually used by
	// landmark/vicinity routes: at most min(degree, routes).
	labels := r.Env.G.Degree(v)
	if m := nLM + r.K; labels > m {
		labels = m
	}
	b := static.StateBreakdown{
		LandmarkRoutes: nLM,
		VicinityRoutes: r.K,
		LabelMappings:  labels,
	}
	if resLoad != nil {
		b.Resolution = resLoad[v]
	}
	return b
}

// StateVectors computes per-node state entry counts for NDDisco and Disco
// in one pass (they share everything but the group/overlay additions).
// Index i holds node i's entry count. The per-node accounting fans out
// over the worker pool — every task writes only its own index, so the
// vectors are identical at any worker count.
func (d *Disco) StateVectors() (ndEntries, discoEntries []int, ndBreak, discoBreak []static.StateBreakdown) {
	n := d.Env().N()
	resLoad := d.resolutionLoad()
	ndEntries = make([]int, n)
	discoEntries = make([]int, n)
	ndBreak = make([]static.StateBreakdown, n)
	discoBreak = make([]static.StateBreakdown, n)

	// Group sizes per node: under a uniform view these are shared per
	// group; compute by bucketing instead of O(n^2) scanning.
	groupSize := d.groupSizes()

	parallel.Run(n, func(v int) {
		nd := ndStateBreakdown(d.ND, graph.NodeID(v), resLoad)
		ndBreak[v] = nd
		ndEntries[v] = nd.Total()
		dd := nd
		dd.GroupAddrs = groupSize[v]
		dd.OverlayLinks = d.Net.Degree(graph.NodeID(v))
		discoBreak[v] = dd
		discoEntries[v] = dd.Total()
	})
	return ndEntries, discoEntries, ndBreak, discoBreak
}

// groupSizes returns |G(v)| (excluding v) for every node, bucketed by each
// node's own k — O(n) when views are uniform, O(n) with two passes when k
// differs by one bit.
func (d *Disco) groupSizes() []int {
	n := d.Env().N()
	out := make([]int, n)
	// Count nodes per (k, prefix) bucket for the ks in use, ascending.
	ks := make([]int, n)
	for v := range ks {
		ks[v] = d.View.KOf(graph.NodeID(v))
	}
	counts := map[int]map[uint64]int{}
	for _, k := range slices.Compact(slices.Sorted(slices.Values(ks))) {
		c := make(map[uint64]int)
		for w := 0; w < n; w++ {
			c[names.PrefixBits(d.Env().Hashes[w], k)]++
		}
		counts[k] = c
	}
	for v, k := range ks {
		out[v] = counts[k][names.PrefixBits(d.Env().Hashes[v], k)] - 1
	}
	return out
}
