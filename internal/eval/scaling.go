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
)

// Fig9Point is one network size's measurement in the scaling sweep.
type Fig9Point struct {
	N            int
	DiscoFirst   float64 // mean stretch
	DiscoLater   float64
	S4First      float64
	S4Later      float64
	DiscoState   float64 // mean entries
	NDDiscoState float64
	S4State      float64
}

// Fig9Result is the Fig. 9 pair of curves: mean stretch and mean state vs
// n on geometric random graphs.
type Fig9Result struct {
	Points []Fig9Point
}

// Format renders both panels.
func (r *Fig9Result) Format() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 9 — Scaling on geometric random graphs")
	fmt.Fprintf(&b, "  %6s | %11s %11s %11s %11s | %11s %11s %11s\n",
		"n", "Disco-first", "Disco-later", "S4-first", "S4-later", "Disco-state", "ND-state", "S4-state")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %6d | %11.3f %11.3f %11.3f %11.3f | %11.1f %11.1f %11.1f\n",
			p.N, p.DiscoFirst, p.DiscoLater, p.S4First, p.S4Later,
			p.DiscoState, p.NDDiscoState, p.S4State)
	}
	return b.String()
}

// Fig9Scaling reproduces Fig. 9: mean first/later stretch for Disco and S4
// plus mean per-node state for Disco, NDDisco and S4, on geometric random
// graphs of increasing size (the paper sweeps 2k-16k).
func (c Config) Fig9Scaling(sizes []int, seed int64, pairs int) *Fig9Result {
	res := &Fig9Result{}
	for _, n := range sizes {
		p := c.BuildProtocols(TopoGeometric, n, seed)
		p.EnsureSnapshot()
		pt := Fig9Point{N: n}

		ps := metrics.SamplePairs(rand.New(rand.NewSource(seed+4000)), n, pairs)
		g := p.Env.G
		// Per-pair stretch fans out over the worker pool (forks sharing
		// the snapshot plus one destination-tree scratch per worker); the
		// float sums reduce in pair order below, so the means are
		// identical at any worker count.
		samples := parallel.MapScratch(len(ps),
			func() *stretchScratch {
				dest := pathtree.NewLazy(g)
				return &stretchScratch{d: p.Disco.ForkWith(dest), s4: p.S4.ForkWith(dest)}
			},
			func(sc *stretchScratch, i int) stretchSample {
				s, t := graph.NodeID(ps[i].Src), graph.NodeID(ps[i].Dst)
				short := sc.d.ND.ShortestDist(s, t)
				if short == 0 {
					return stretchSample{}
				}
				return stretchSample{
					ok:         true,
					discoFirst: stretchOf(g, sc.d.FirstRoute(s, t, core.ShortcutNoPathKnowledge), short),
					discoLater: stretchOf(g, sc.d.LaterRoute(s, t, core.ShortcutNoPathKnowledge), short),
					s4First:    stretchOf(g, sc.s4.FirstRoute(s, t), short),
					s4Later:    stretchOf(g, sc.s4.LaterRoute(s, t), short),
				}
			})
		var df, dl, sf, sl float64
		count := 0
		for _, sm := range samples {
			if !sm.ok {
				continue
			}
			df += sm.discoFirst
			dl += sm.discoLater
			sf += sm.s4First
			sl += sm.s4Later
			count++
		}
		pt.DiscoFirst = df / float64(count)
		pt.DiscoLater = dl / float64(count)
		pt.S4First = sf / float64(count)
		pt.S4Later = sl / float64(count)

		ndE, dE, _, _ := p.Disco.StateVectors()
		s4E := p.S4.StateEntries(p.S4.ClusterSizesAll())
		pt.DiscoState = intsToCDF(dE).Mean()
		pt.NDDiscoState = intsToCDF(ndE).Mean()
		pt.S4State = intsToCDF(s4E).Mean()

		res.Points = append(res.Points, pt)
	}
	return res
}
