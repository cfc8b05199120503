package eval

import (
	"fmt"
	"math/rand"
	"strings"

	"disco/internal/metrics"
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
		sw := sweepPairs(ps, p.forkPlanes(nil), planesDist, discoS4Columns(p.Env.G)...)
		pt.DiscoFirst, pt.DiscoLater, pt.S4First, pt.S4Later = sw.mean(0), sw.mean(1), sw.mean(2), sw.mean(3)

		ndE, dE, _, _ := p.Disco.StateVectors()
		s4E, _ := p.S4.StateVectors(p.S4.ClusterSizesAll())
		pt.DiscoState = intsToCDF(dE).Mean()
		pt.NDDiscoState = intsToCDF(ndE).Mean()
		pt.S4State = intsToCDF(s4E).Mean()

		res.Points = append(res.Points, pt)
	}
	return res
}
