package eval

import (
	"math"

	"disco/internal/core"
	"disco/internal/dynamics"
	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/parallel"
	"disco/internal/pathtree"
	"disco/internal/s4"
	"disco/internal/snapshot"
	"disco/internal/vrr"
)

// column is one series of a pair sweep: the length of the route the
// worker's fork takes from s to t, and whether it delivered one.
type column[F any] func(f F, s, t graph.NodeID) (routeLen float64, ok bool)

// routed makes a column of a must-deliver route function measured on g.
func routed[F any](g *graph.Graph, route func(f F, s, t graph.NodeID) []graph.NodeID) column[F] {
	return func(f F, s, t graph.NodeID) (float64, bool) { return g.PathLength(route(f, s, t)), true }
}

// pairSweep is what a sweep measured, in pair order.
type pairSweep[F any] struct {
	cols    int
	reached []bool    // per pair: 0 < d(s,t) < +Inf, so its columns were routed
	stretch []float64 // [pair*cols+col]; 0 where the column did not deliver
	forks   []F       // every worker's fork, for the counters routing left on it
}

// sweepPairs is the one pair sweep every stretch experiment runs: each
// pool worker takes a fork, and each sampled pair — on whichever worker
// claims it — gets its shortest distance from dist, is skipped when that
// is 0 or +Inf (coinciding or disconnected endpoints), and otherwise has
// every column's route length turned into a stretch by metrics.Stretch,
// which panics on a route shorter than the shortest path. Routes are pure
// functions of the environment and results land in pair-indexed storage,
// so the sweep reads the same at any worker count; callers reduce floats
// by walking row(i) in pair order.
func sweepPairs[F any](ps []metrics.Pair, fork func() F, dist func(f F, s, t graph.NodeID) float64, cols ...column[F]) *pairSweep[F] {
	nc := len(cols)
	sw := &pairSweep[F]{cols: nc, reached: make([]bool, len(ps)), stretch: make([]float64, len(ps)*nc)}
	sw.forks = parallel.RunGather(len(ps), fork, func(f F, i int) {
		s, t := graph.NodeID(ps[i].Src), graph.NodeID(ps[i].Dst)
		short := dist(f, s, t)
		if short == 0 || math.IsInf(short, 1) {
			return
		}
		sw.reached[i] = true
		for c, col := range cols {
			if routeLen, ok := col(f, s, t); ok {
				sw.stretch[i*nc+c] = metrics.Stretch(routeLen, short)
			}
		}
	})
	return sw
}

// row returns pair i's stretch per column — 0 where the column did not
// deliver — or nil when the pair was skipped.
func (sw *pairSweep[F]) row(i int) []float64 {
	if !sw.reached[i] {
		return nil
	}
	return sw.stretch[i*sw.cols : (i+1)*sw.cols]
}

// column returns column c's stretch over the pairs that were routed, in
// pair order.
func (sw *pairSweep[F]) column(c int) []float64 {
	out := make([]float64, 0, len(sw.reached))
	for i := range sw.reached {
		if st := sw.row(i); st != nil {
			out = append(out, st[c])
		}
	}
	return out
}

// mean is column c's mean stretch over the pairs that were routed, summed
// in pair order.
func (sw *pairSweep[F]) mean(c int) float64 {
	sum, count := 0.0, 0
	for i := range sw.reached {
		if st := sw.row(i); st != nil {
			sum += st[c]
			count++
		}
	}
	return sum / float64(count)
}

// planes is one worker's forks of the Disco and S4 data planes (and of VRR
// where a sweep has that column). They share one destination tree, so the
// search behind a pair's d(s,t) is reused by every protocol that routes the
// pair. legs is the same forks as the dynamics tables' columns, in legNames
// order: Disco first packets, NDDisco first/later, S4 first/later; they
// route into buf.
type planes struct {
	d    *core.Disco
	s4   *s4.S4
	vr   *vrr.VRR
	legs [numLegs]leg
	buf  []graph.NodeID
}

// leg is one (router, packet phase) column of a dynamics table.
type leg struct {
	r     dynamics.Router
	later bool
}

func newPlanes(d *core.Disco, s4f *s4.S4) *planes {
	return &planes{d: d, s4: s4f, legs: [numLegs]leg{{d, false}, {d.ND, false}, {d.ND, true}, {s4f, false}, {s4f, true}}}
}

// forkPlanes returns the per-worker fork of the bundle's installed
// snapshot; vr, when not nil, is forked along.
func (p *Protocols) forkPlanes(vr *vrr.VRR) func() *planes {
	return func() *planes {
		dest := pathtree.NewLazy(p.Env.G)
		pl := newPlanes(p.Disco.ForkWith(dest), p.S4.ForkWith(dest))
		if vr != nil {
			pl.vr = vr.Fork()
		}
		return pl
	}
}

// forkRepaired is forkPlanes over a repaired snapshot, whose topology may
// be disconnected: route through legs, which report delivery.
func (p *Protocols) forkRepaired(rep *snapshot.Snapshot) func() *planes {
	return func() *planes {
		return newPlanes(p.Disco.ForkRepaired(rep), p.S4.ForkRepaired(rep, pathtree.NewLazy(rep.Graph())))
	}
}

// discoDist, discoFirst and discoLater are a Disco fork's d(s,t) and its
// first- and later-packet routes under the paper's default No Path
// Knowledge shortcutting.
func discoDist(f *core.Disco, s, t graph.NodeID) float64 { return f.ND.ShortestDist(s, t) }

func discoFirst(f *core.Disco, s, t graph.NodeID) []graph.NodeID {
	return f.FirstRoute(s, t, core.ShortcutNoPathKnowledge)
}

func discoLater(f *core.Disco, s, t graph.NodeID) []graph.NodeID {
	return f.LaterRoute(s, t, core.ShortcutNoPathKnowledge)
}

// discoS4Columns are the four columns Figs. 3, 4, 5 and 9 share, in this
// order: Disco first and later packets, then S4's.
func discoS4Columns(g *graph.Graph) []column[*planes] {
	return []column[*planes]{
		routed(g, func(pl *planes, s, t graph.NodeID) []graph.NodeID { return discoFirst(pl.d, s, t) }),
		routed(g, func(pl *planes, s, t graph.NodeID) []graph.NodeID { return discoLater(pl.d, s, t) }),
		routed(g, func(pl *planes, s, t graph.NodeID) []graph.NodeID { return pl.s4.FirstRoute(s, t) }),
		routed(g, func(pl *planes, s, t graph.NodeID) []graph.NodeID { return pl.s4.LaterRoute(s, t) }),
	}
}

// planesDist is d(s,t) on a planes fork's shared destination tree.
func planesDist(pl *planes, s, t graph.NodeID) float64 { return pl.s4.ShortestDist(s, t) }
