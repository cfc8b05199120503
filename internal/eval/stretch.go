package eval

import (
	"fmt"
	"math/rand"
	"strings"

	"disco/internal/core"
	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/parallel"
	"disco/internal/pathtree"
	"disco/internal/s4"
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

// Get returns the CDF for a labeled series, or nil.
func (r *StretchResult) Get(label string) *metrics.CDF {
	for i, l := range r.Labels {
		if l == label {
			return r.CDFs[i]
		}
	}
	return nil
}

// stretchOf computes route-length/shortest for a route function.
func stretchOf(g interface {
	PathLength([]graph.NodeID) float64
}, route []graph.NodeID, shortest float64) float64 {
	return metrics.Stretch(g.PathLength(route), shortest)
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

// stretchSample is one sampled pair's measurements; ok is false for pairs
// skipped because the endpoints coincide in distance (short == 0).
type stretchSample struct {
	ok                     bool
	discoFirst, discoLater float64
	s4First, s4Later       float64
	vrr                    float64
}

// stretchScratch is one worker's private routing state for a stretch sweep.
type stretchScratch struct {
	d  *core.Disco
	s4 *s4.S4
	vr *vrr.VRR
}

func stretchOver(p *Protocols, kind TopoKind, seed int64, pairs int, withVRR bool) *StretchResult {
	n := p.Env.N()
	ps := metrics.SamplePairs(rand.New(rand.NewSource(seed+1000)), n, pairs)
	g := p.Env.G
	p.EnsureSnapshot()

	var vr *vrr.VRR
	if withVRR {
		vr = p.VRR(seed)
	}
	// Fan the per-pair route computations out over the worker pool. Each
	// worker forks the data planes, which share the precomputed snapshot
	// (vicinities, landmark trees) and one destination-tree scratch per
	// worker, so the Dijkstra for a pair's stretch denominator is reused
	// by every protocol routing that pair. Routes are pure functions of
	// the environment, so the samples — and hence the CDFs — are
	// identical at any worker count.
	samples := make([]stretchSample, len(ps))
	forks := parallel.RunGather(len(ps),
		func() *stretchScratch {
			dest := pathtree.NewLazy(g)
			sc := &stretchScratch{d: p.Disco.ForkWith(dest), s4: p.S4.ForkWith(dest)}
			if withVRR {
				sc.vr = vr.Fork()
			}
			return sc
		},
		func(sc *stretchScratch, i int) {
			s, t := graph.NodeID(ps[i].Src), graph.NodeID(ps[i].Dst)
			short := sc.d.ND.ShortestDist(s, t)
			if short == 0 {
				return
			}
			out := stretchSample{ok: true}
			out.discoFirst = stretchOf(g, sc.d.FirstRoute(s, t, core.ShortcutNoPathKnowledge), short)
			out.discoLater = stretchOf(g, sc.d.LaterRoute(s, t, core.ShortcutNoPathKnowledge), short)
			out.s4First = stretchOf(g, sc.s4.FirstRoute(s, t), short)
			out.s4Later = stretchOf(g, sc.s4.LaterRoute(s, t), short)
			if withVRR {
				out.vrr = stretchOf(g, sc.vr.Route(s, t), short)
			}
			samples[i] = out
		})

	// Merge in pair order so output bytes never depend on the schedule.
	discoFirst := make([]float64, 0, pairs)
	discoLater := make([]float64, 0, pairs)
	s4First := make([]float64, 0, pairs)
	s4Later := make([]float64, 0, pairs)
	var vrrSt []float64
	for _, sm := range samples {
		if !sm.ok {
			continue
		}
		discoFirst = append(discoFirst, sm.discoFirst)
		discoLater = append(discoLater, sm.discoLater)
		s4First = append(s4First, sm.s4First)
		s4Later = append(s4Later, sm.s4Later)
		if withVRR {
			vrrSt = append(vrrSt, sm.vrr)
		}
	}
	fb := 0
	for _, sc := range forks {
		f, _ := sc.d.Fallbacks()
		fb += f
	}
	res := &StretchResult{
		Kind:  kind,
		N:     n,
		Pairs: pairs,
		Labels: []string{
			"Disco-First", "Disco-Later", "S4-First", "S4-Later",
		},
		CDFs: []*metrics.CDF{
			metrics.NewCDF(discoFirst), metrics.NewCDF(discoLater),
			metrics.NewCDF(s4First), metrics.NewCDF(s4Later),
		},
		Fallbacks: fb,
	}
	if withVRR {
		res.Labels = append(res.Labels, "VRR")
		res.CDFs = append(res.CDFs, metrics.NewCDF(vrrSt))
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
	type sampled struct {
		nd    *core.NDDisco
		pairs []metrics.Pair
	}
	var cols []sampled
	for _, sp := range specs {
		res.Topos = append(res.Topos, sp.Label)
		p := c.BuildProtocols(sp.Kind, sp.N, seed)
		p.EnsureSnapshot()
		cols = append(cols, sampled{
			nd:    p.Disco.ND,
			pairs: metrics.SamplePairs(rand.New(rand.NewSource(seed+2000)), sp.N, pairs),
		})
	}
	// One parallel sweep per column; each pair task evaluates all six
	// heuristics against one worker-private fork of the shared snapshot.
	// Per-heuristic means then reduce in pair order, exactly as the serial
	// loops did.
	nSC := len(core.AllShortcuts)
	colMeans := make([][]float64, len(cols)) // [col][heuristic]
	for ci, col := range cols {
		type pairStretch struct {
			ok bool
			st []float64 // per heuristic
		}
		cps := col.pairs
		nd := col.nd
		samples := parallel.MapScratch(len(cps),
			nd.Fork,
			func(f *core.NDDisco, i int) pairStretch {
				s, t := graph.NodeID(cps[i].Src), graph.NodeID(cps[i].Dst)
				short := f.ShortestDist(s, t)
				if short == 0 {
					return pairStretch{}
				}
				out := pairStretch{ok: true, st: make([]float64, nSC)}
				for si, sc := range core.AllShortcuts {
					out.st[si] = stretchOf(f.Env.G, f.FirstRoute(s, t, sc), short)
				}
				return out
			})
		means := make([]float64, nSC)
		for si := range core.AllShortcuts {
			total, count := 0.0, 0
			for _, sm := range samples {
				if !sm.ok {
					continue
				}
				total += sm.st[si]
				count++
			}
			means[si] = total / float64(count)
		}
		colMeans[ci] = means
	}
	for si, sc := range core.AllShortcuts {
		row := Fig6Row{Heuristic: sc}
		for ci := range cols {
			row.Means = append(row.Means, colMeans[ci][si])
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}
