package core

import (
	"slices"

	"disco/internal/addr"
	"disco/internal/graph"
	"disco/internal/names"
	"disco/internal/parallel"
)

// StateBreakdown itemizes one node's data-plane routing state in table
// entries, following the §5.2 accounting: "forwarding entries for landmarks
// and vicinities, name resolution entries on the landmark database,
// forwarding label mappings for our compact source route format in
// NDDisco, and the address mappings for Disco".
type StateBreakdown struct {
	LandmarkRoutes int // shortest-path entries to every landmark
	VicinityRoutes int // entries for V(v)
	LabelMappings  int // compact-source-route label → interface mappings
	Resolution     int // name-resolution entries (landmarks only)
	GroupAddrs     int // sloppy-group address entries (Disco only)
	OverlayLinks   int // overlay neighbor state (Disco only)
}

// Total returns the entry count.
func (b StateBreakdown) Total() int {
	return b.LandmarkRoutes + b.VicinityRoutes + b.LabelMappings + b.Resolution + b.GroupAddrs + b.OverlayLinks
}

// Bytes converts the breakdown to bytes under a name-size model (Fig. 7):
// landmark/vicinity/label entries are name+nexthop entries; resolution and
// group entries each store a name plus a full address.
func (b StateBreakdown) Bytes(m addr.SizeModel, avgAddr float64) float64 {
	plain := m.PlainEntryBytes()
	withAddr := float64(2*m.NameBytes) + avgAddr
	return float64(b.LandmarkRoutes+b.VicinityRoutes)*plain +
		float64(b.LabelMappings)*2 +
		float64(b.Resolution+b.GroupAddrs)*withAddr +
		float64(b.OverlayLinks)*plain
}

// resolutionLoad computes, for every node, how many resolution entries it
// stores (zero for non-landmarks): the consistent-hashing share of all n
// name→address bindings (§4.3).
func (d *Disco) resolutionLoad() []int {
	return d.DB.Load(d.Env().N(), d.Env().Hashes)
}

// NDStateBreakdown returns node v's NDDisco state given the precomputed
// resolution load vector (from Disco.resolutionLoad or equivalent).
func ndStateBreakdown(r *NDDisco, v graph.NodeID, resLoad []int) StateBreakdown {
	nLM := len(r.Env.Landmarks)
	// Forwarding labels are needed only for next hops actually used by
	// landmark/vicinity routes: at most min(degree, routes).
	labels := r.Env.G.Degree(v)
	if m := nLM + r.K; labels > m {
		labels = m
	}
	b := StateBreakdown{
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
func (d *Disco) StateVectors() (ndEntries, discoEntries []int, ndBreak, discoBreak []StateBreakdown) {
	n := d.Env().N()
	resLoad := d.resolutionLoad()
	ndEntries = make([]int, n)
	discoEntries = make([]int, n)
	ndBreak = make([]StateBreakdown, n)
	discoBreak = make([]StateBreakdown, n)

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
