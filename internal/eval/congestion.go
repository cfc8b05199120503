package eval

import (
	"fmt"
	"math/rand"

	"disco/internal/core"
	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/parallel"
)

// CongestionResult holds per-edge usage CDFs (right panels of Figs. 4 and
// 5, and Fig. 10).
type CongestionResult struct {
	Kind   TopoKind
	N      int
	Edges  int
	Labels []string
	CDFs   []*metrics.CDF
}

// Format renders the summary, highlighting the tail the figures zoom into.
func (r *CongestionResult) Format() string {
	s := metrics.FormatSeries(
		fmt.Sprintf("Congestion (paths per edge) — %s, n=%d, m=%d edges", r.Kind, r.N, r.Edges),
		r.Labels, r.CDFs)
	// Tail view (the figures plot CDF from 0.995 / 0.999).
	s += "  tail quantiles (p99, p99.9, max):\n"
	for i, l := range r.Labels {
		c := r.CDFs[i]
		s += fmt.Sprintf("    %-14s %8.0f %8.0f %8.0f\n", l, c.Quantile(0.99), c.Quantile(0.999), c.Max())
	}
	return s
}

// congestionOf routes one flow per node to a uniform random destination
// and counts per-edge usage (§5.2 Congestion). Destinations are drawn
// serially up front — preserving the historical draw sequence — then the
// per-source routing fans out over the worker pool: fork yields one
// worker-private route function, and each worker tallies into its own
// edge counter, merged (order-independent integer sums) at the end.
func congestionOf(g *graph.Graph, rng *rand.Rand, fork func() func(s, t graph.NodeID) []graph.NodeID) *metrics.CDF {
	n := g.N()
	dests := make([]graph.NodeID, n)
	for s := 0; s < n; s++ {
		dests[s] = graph.NodeID(rng.Intn(n))
	}
	type tally struct {
		route func(s, t graph.NodeID) []graph.NodeID
		cong  *metrics.Congestion
	}
	parts := parallel.RunGather(n,
		func() *tally { return &tally{route: fork(), cong: metrics.NewCongestion(g.M())} },
		func(w *tally, s int) {
			t := dests[s]
			if t == graph.NodeID(s) {
				return
			}
			p := w.route(graph.NodeID(s), t)
			for i := 1; i < len(p); i++ {
				w.cong.AddEdgeUse(g.EdgeID(p[i-1], p[i]))
			}
		})
	total := metrics.NewCongestion(g.M())
	for _, w := range parts {
		total.Merge(w.cong)
	}
	return total.CDF()
}

// Congestion reproduces the congestion comparison: every node routes to
// one random destination under Disco (later packets), S4 (later), path
// vector (shortest paths) and optionally VRR; per-edge use counts are
// compared as CDFs over edges.
func Congestion(p *Protocols, kind TopoKind, seed int64, withVRR bool) *CongestionResult {
	g := p.Env.G
	p.EnsureSnapshot()
	res := &CongestionResult{Kind: kind, N: g.N(), Edges: g.M()}

	res.Labels = append(res.Labels, "Disco")
	res.CDFs = append(res.CDFs, congestionOf(g, rand.New(rand.NewSource(seed+3000)), func() func(s, t graph.NodeID) []graph.NodeID {
		f := p.Disco.Fork()
		return func(s, t graph.NodeID) []graph.NodeID {
			return f.LaterRoute(s, t, core.ShortcutNoPathKnowledge)
		}
	}))

	res.Labels = append(res.Labels, "Path-vector")
	res.CDFs = append(res.CDFs, congestionOf(g, rand.New(rand.NewSource(seed+3000)), func() func(s, t graph.NodeID) []graph.NodeID {
		return p.SPR.Fork().Route
	}))

	res.Labels = append(res.Labels, "S4")
	res.CDFs = append(res.CDFs, congestionOf(g, rand.New(rand.NewSource(seed+3000)), func() func(s, t graph.NodeID) []graph.NodeID {
		return p.S4.Fork().LaterRoute
	}))

	if withVRR {
		v := p.VRR(seed)
		res.Labels = append(res.Labels, "VRR")
		res.CDFs = append(res.CDFs, congestionOf(g, rand.New(rand.NewSource(seed+3000)), func() func(s, t graph.NodeID) []graph.NodeID {
			return v.Fork().Route
		}))
	}
	return res
}

// Fig10ASCongestion reproduces Fig. 10: congestion on the AS-level
// topology, where a small fraction of edges near landmarks sees more load
// than under shortest-path routing.
func (c Config) Fig10ASCongestion(n int, seed int64) *CongestionResult {
	p := c.BuildProtocols(TopoASLike, n, seed)
	return Congestion(p, TopoASLike, seed, false)
}

// Fig45Result bundles the three panels of Fig. 4 (G(n,m)) or Fig. 5
// (geometric): state, stretch and congestion on a 1,024-node topology
// including VRR.
type Fig45Result struct {
	Kind       TopoKind
	State      *StateResult
	Stretch    *StretchResult
	Congestion *CongestionResult
}

// Format renders all three panels.
func (r *Fig45Result) Format() string {
	return r.State.Format() + r.Stretch.Format() + r.Congestion.Format()
}

// Fig45 reproduces Fig. 4 (kind = TopoGnm) or Fig. 5 (TopoGeometric).
// The panels run in sequence — each already saturates the worker pool
// internally, the shared snapshot is built once up front for the two
// routing panels, and the O(n^2)-ish VRR baseline is built once (memoized
// on p) and forked by every panel that routes through it.
func (c Config) Fig45(kind TopoKind, n int, seed int64, pairs int) *Fig45Result {
	p := c.BuildProtocols(kind, n, seed)
	p.EnsureSnapshot()
	return &Fig45Result{
		Kind:       kind,
		State:      StateWithVRR(p, kind, seed),
		Stretch:    StretchWithVRR(p, kind, seed, pairs),
		Congestion: Congestion(p, kind, seed, true),
	}
}
