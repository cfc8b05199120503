package eval

import (
	"fmt"
	"math/rand"
	"strings"

	"disco/internal/graph"
	"disco/internal/overlay"
	"disco/internal/parallel"
	"disco/internal/pathvector"
	"disco/internal/sim"
	"disco/internal/sloppy"
	"disco/internal/static"
	"disco/internal/vicinity"
)

// Fig8Point is the per-size measurement of messages/node to convergence.
type Fig8Point struct {
	N              int
	PathVector     float64 // full path vector (extrapolated above PVCap)
	PVExtrapolated bool
	S4             float64 // landmark phase + cluster phase
	NDDisco        float64 // single vicinity path-vector run
	Disco1         float64 // NDDisco + registration + 1-finger overlay
	Disco3         float64 // NDDisco + registration + 3-finger overlay
}

// Fig8Result is the Fig. 8 curve set.
type Fig8Result struct {
	Points []Fig8Point
}

// Format renders the series.
func (r *Fig8Result) Format() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 8 — Mean messages per node until convergence, G(n,m) graphs")
	fmt.Fprintf(&b, "  %6s %14s %10s %10s %10s %10s\n", "n", "path-vector", "S4", "ND-Disco", "Disco-1f", "Disco-3f")
	for _, p := range r.Points {
		pv := fmt.Sprintf("%.0f", p.PathVector)
		if p.PVExtrapolated {
			pv += "*"
		}
		fmt.Fprintf(&b, "  %6d %14s %10.0f %10.0f %10.0f %10.0f\n",
			p.N, pv, p.S4, p.NDDisco, p.Disco1, p.Disco3)
	}
	fmt.Fprintln(&b, "  (* linearly extrapolated, as in the paper beyond 512 nodes)")
	return b.String()
}

// runPV executes one event-driven protocol run to quiescence and returns
// total messages.
func runPV(g *graph.Graph, cfg pathvector.Config) (int64, *pathvector.Protocol) {
	var eng sim.Engine
	p := pathvector.New(g, &eng, cfg)
	p.Start()
	if _, q := eng.Run(0); !q {
		panic("eval: protocol failed to quiesce")
	}
	return p.Messages, p
}

// Fig8Convergence reproduces Fig. 8 on G(n,m) graphs of the given sizes.
// Full path vector is simulated up to pvCap nodes and linearly extrapolated
// beyond, exactly as the paper does beyond 512 nodes. The per-size
// convergence simulations are independent (each draws from fixed per-size
// seeds), so the sizes fan out over the worker pool; only the PV
// extrapolation — which chains size results — runs serially afterwards,
// in size order, making the output identical at any worker count.
func Fig8Convergence(sizes []int, pvCap int, seed int64) *Fig8Result {
	res := &Fig8Result{}
	points := parallel.Map(len(sizes), func(i int) Fig8Point {
		n := sizes[i]
		g := BuildTopo(TopoGnm, n, seed)
		env := static.NewEnv(g, seed)
		k := vicinity.DefaultK(n)
		pt := Fig8Point{N: n}

		// Full path vector (small sizes only; extrapolated below).
		if n <= pvCap {
			msgs, _ := runPV(g, pathvector.Config{Mode: pathvector.ModeFull})
			pt.PathVector = float64(msgs) / float64(n)
		}

		// S4: landmark flood then cluster-scoped flood.
		lmMsgs, _ := runPV(g, pathvector.Config{Mode: pathvector.ModeLandmarksOnly, IsLandmark: env.IsLM})
		clMsgs, _ := runPV(g, pathvector.Config{Mode: pathvector.ModeCluster, IsLandmark: env.IsLM, LMDist: env.LMDist})
		pt.S4 = float64(lmMsgs+clMsgs) / float64(n)

		// NDDisco: one vicinity run learns landmarks and vicinities.
		ndMsgs, _ := runPV(g, pathvector.Config{Mode: pathvector.ModeVicinity, K: k, IsLandmark: env.IsLM})
		pt.NDDisco = float64(ndMsgs) / float64(n)

		// Disco = NDDisco + name-independence messaging (§4.3-4.4):
		// address registration at the owning landmark (one message per
		// node), finger lookups through the resolution DB (query +
		// response per out-link), and the overlay dissemination flood.
		view := sloppy.BuildView(env.Hashes, env.NEst)
		extra := func(fingers int, overlaySeed int64) float64 {
			net := overlay.Build(env.Hashes, view, fingers, rand.New(rand.NewSource(overlaySeed)))
			total, _ := net.DisseminateAll()
			msgs := int64(total.Messages)
			for v := 0; v < n; v++ {
				msgs++ // registration message v -> owner(h(v))
				// finger/ring lookups: query + response per out-link
				msgs += int64(2 * len(net.OutLinks(graph.NodeID(v))))
			}
			return float64(msgs) / float64(n)
		}
		pt.Disco1 = pt.NDDisco + extra(1, seed+11)
		pt.Disco3 = pt.NDDisco + extra(3, seed+13)
		return pt
	})

	// Serial pass in size order: extrapolate PV from the last two
	// simulated sizes, exactly as the serial loop did.
	type pvSample struct {
		n       int
		perNode float64
	}
	var pvSamples []pvSample
	for i := range points {
		pt := points[i]
		if pt.N <= pvCap {
			pvSamples = append(pvSamples, pvSample{n: pt.N, perNode: pt.PathVector})
		} else if len(pvSamples) >= 2 {
			a := pvSamples[len(pvSamples)-2]
			b := pvSamples[len(pvSamples)-1]
			slope := (b.perNode - a.perNode) / float64(b.n-a.n)
			pt.PathVector = b.perNode + slope*float64(pt.N-b.n)
			pt.PVExtrapolated = true
		}
		res.Points = append(res.Points, pt)
	}
	return res
}

// FingerResult is the §5 finger-count experiment.
type FingerResult struct {
	N                      int
	Mean1, Mean3           float64 // mean announcement travel distance (overlay hops)
	Max1, Max3             int
	Msgs1, Msgs3           int
	MsgIncreasePct         float64
	AvgDegree1, AvgDegree3 float64
}

// Format renders the comparison (paper, 1,024-node G(n,m): 5.77/24 with 1
// finger vs 3.04/16 with 3 fingers, +3.3% messages).
func (r *FingerResult) Format() string {
	return fmt.Sprintf(
		"Finger experiment, n=%d (paper: mean/max 5.77/24 -> 3.04/16, +3.3%% messages)\n"+
			"  1 finger : mean travel %.2f hops, max %d, %d messages, avg overlay degree %.2f\n"+
			"  3 fingers: mean travel %.2f hops, max %d, %d messages, avg overlay degree %.2f\n"+
			"  message increase: %.1f%%\n",
		r.N, r.Mean1, r.Max1, r.Msgs1, r.AvgDegree1,
		r.Mean3, r.Max3, r.Msgs3, r.AvgDegree3, r.MsgIncreasePct)
}

// FingerExperiment reproduces the 1-vs-3-finger dissemination comparison
// on a G(n,m) graph.
func FingerExperiment(n int, seed int64) *FingerResult {
	g := BuildTopo(TopoGnm, n, seed)
	env := static.NewEnv(g, seed)
	view := sloppy.BuildView(env.Hashes, env.NEst)
	n1 := overlay.Build(env.Hashes, view, 1, rand.New(rand.NewSource(seed+21)))
	n3 := overlay.Build(env.Hashes, view, 3, rand.New(rand.NewSource(seed+23)))
	t1, m1 := n1.DisseminateAll()
	t3, m3 := n3.DisseminateAll()
	return &FingerResult{
		N:     n,
		Mean1: m1, Mean3: m3,
		Max1: t1.MaxHops, Max3: t3.MaxHops,
		Msgs1: t1.Messages, Msgs3: t3.Messages,
		MsgIncreasePct: 100 * (float64(t3.Messages) - float64(t1.Messages)) / float64(t1.Messages),
		AvgDegree1:     n1.AvgDegree(),
		AvgDegree3:     n3.AvgDegree(),
	}
}
