package eval

import (
	"fmt"
	"math/rand"
	"strings"

	"disco/internal/core"
	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/vrr"
)

// StretchResult holds stretch CDFs per series (Fig. 3 and the middle
// panels of Figs. 4 and 5).
type StretchResult struct {
	Kind      TopoKind
	N         int
	Pairs     int
	Labels    []string
	CDFs      []*metrics.CDF
	Fallbacks int // Disco first-packet landmark-DB fallbacks observed
}

// Format renders the figure's summary rows.
func (r *StretchResult) Format() string {
	s := metrics.FormatSeries(
		fmt.Sprintf("Path stretch — %s, n=%d, %d src-dst pairs", r.Kind, r.N, r.Pairs),
		r.Labels, r.CDFs)
	if r.Fallbacks > 0 {
		s += fmt.Sprintf("  (Disco landmark-DB fallbacks: %d)\n", r.Fallbacks)
	}
	return s
}

// Fig3Stretch reproduces Fig. 3: CDFs over sampled source-destination
// pairs of first- and later-packet stretch for Disco and S4, using the
// paper's default "No Path Knowledge" shortcutting for Disco.
func (c Config) Fig3Stretch(kind TopoKind, n int, seed int64, pairs int) *StretchResult {
	p := c.BuildProtocols(kind, n, seed)
	return stretchOver(p, kind, seed, pairs, false)
}

// StretchWithVRR adds the VRR series (middle panels of Figs. 4 and 5).
func StretchWithVRR(p *Protocols, kind TopoKind, seed int64, pairs int) *StretchResult {
	return stretchOver(p, kind, seed, pairs, true)
}

func stretchOver(p *Protocols, kind TopoKind, seed int64, pairs int, withVRR bool) *StretchResult {
	n := p.Env.N()
	ps := metrics.SamplePairs(rand.New(rand.NewSource(seed+1000)), n, pairs)
	g := p.Env.G
	p.EnsureSnapshot()

	res := &StretchResult{
		Kind: kind, N: n, Pairs: pairs,
		Labels: []string{"Disco-First", "Disco-Later", "S4-First", "S4-Later"},
	}
	cols := discoS4Columns(g)
	var vr *vrr.VRR
	if withVRR {
		vr = p.VRR(seed)
		res.Labels = append(res.Labels, "VRR")
		cols = append(cols, routed(g, func(pl *planes, s, t graph.NodeID) []graph.NodeID { return pl.vr.Route(s, t) }))
	}
	sw := sweepPairs(ps, p.forkPlanes(vr), planesDist, cols...)
	for c := range cols {
		res.CDFs = append(res.CDFs, metrics.NewCDF(sw.column(c)))
	}
	for _, pl := range sw.forks {
		f, _ := pl.d.Fallbacks()
		res.Fallbacks += f
	}
	return res
}

// Fig6Result is the shortcutting-heuristics table: mean first-packet
// stretch per heuristic per topology.
type Fig6Result struct {
	Topos  []string
	Rows   []Fig6Row
	NPairs int
}

// Fig6Row is one heuristic's mean stretch across the topologies.
type Fig6Row struct {
	Heuristic core.Shortcut
	Means     []float64
}

// Format renders the Fig. 6 table.
func (r *Fig6Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6 — Mean first-packet stretch by shortcutting heuristic (%d pairs)\n", r.NPairs)
	fmt.Fprintf(&b, "  %-36s", "heuristic")
	for _, t := range r.Topos {
		fmt.Fprintf(&b, " %16s", t)
	}
	fmt.Fprintln(&b)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-36s", row.Heuristic.String())
		for _, m := range row.Means {
			fmt.Fprintf(&b, " %16.3f", m)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Fig6Spec names one column of the Fig. 6 table.
type Fig6Spec struct {
	Label string
	Kind  TopoKind
	N     int
}

// Fig6Shortcuts reproduces the Fig. 6 table: mean stretch of NDDisco first
// packets under each of the six shortcutting heuristics, across the given
// topologies (the paper uses AS-level, router-level, geometric-16384 and
// GNM-16384).
func (c Config) Fig6Shortcuts(specs []Fig6Spec, seed int64, pairs int) *Fig6Result {
	res := &Fig6Result{NPairs: pairs}
	for _, sc := range core.AllShortcuts {
		res.Rows = append(res.Rows, Fig6Row{Heuristic: sc})
	}
	// One sweep per topology; each pair is routed under all six heuristics
	// on one worker-private fork of the shared snapshot.
	for _, sp := range specs {
		res.Topos = append(res.Topos, sp.Label)
		p := c.BuildProtocols(sp.Kind, sp.N, seed)
		p.EnsureSnapshot()
		ps := metrics.SamplePairs(rand.New(rand.NewSource(seed+2000)), sp.N, pairs)
		var heuristics []column[*core.NDDisco]
		for _, sc := range core.AllShortcuts {
			heuristics = append(heuristics, routed(p.Env.G, func(f *core.NDDisco, s, t graph.NodeID) []graph.NodeID {
				return f.FirstRoute(s, t, sc)
			}))
		}
		sw := sweepPairs(ps, p.Disco.ND.Fork, (*core.NDDisco).ShortestDist, heuristics...)
		for si := range res.Rows {
			res.Rows[si].Means = append(res.Rows[si].Means, sw.mean(si))
		}
	}
	return res
}
