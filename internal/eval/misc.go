package eval

import (
	"fmt"
	"math/rand"

	"disco/internal/core"
	"disco/internal/estimate"
	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/names"
	"disco/internal/parallel"
	"disco/internal/pathvector"
	"disco/internal/sim"
	"disco/internal/sloppy"
	"disco/internal/static"
	"disco/internal/vicinity"
)

// AccuracyResult is the §5 "accuracy of static simulation" cross-check.
type AccuracyResult struct {
	N                 int
	VicinityAgreement float64 // fraction of nodes with identical vicinities
	LMDistAgreement   float64 // fraction of nodes with identical landmark distance
	StretchDeltaPct   float64 // |static - event| mean later-packet stretch, percent
}

// Format renders the check. The paper reports a <1% stretch difference;
// here the converged *tables* (vicinities, landmark distances) agree
// exactly, and the residual stretch delta comes only from equal-length
// shortest-path tie-breaks interacting with backtrack trimming when routes
// are materialized.
func (r *AccuracyResult) Format() string {
	return fmt.Sprintf(
		"Static-vs-event-simulator accuracy, n=%d (paper: within ~0.9%%)\n"+
			"  vicinity tables identical at %.1f%% of nodes\n"+
			"  landmark distances identical at %.1f%% of nodes\n"+
			"  mean later-packet stretch difference: %.3f%%\n",
		r.N, 100*r.VicinityAgreement, 100*r.LMDistAgreement, r.StretchDeltaPct)
}

// StaticAccuracy runs the full event-driven path-vector protocol to
// convergence on a G(n,m) graph and compares its converged tables with the
// static simulator's, then compares the later-packet stretch both induce
// over sampled pairs.
func (c Config) StaticAccuracy(n int, seed int64, pairs int) *AccuracyResult {
	g := BuildTopo(TopoGnm, n, seed)
	env := static.NewEnv(g, seed)
	k := vicinity.DefaultK(n)

	var eng sim.Engine
	p := pathvector.New(g, &eng, pathvector.Config{
		Mode: pathvector.ModeVicinity, K: k, IsLandmark: env.IsLM,
	})
	p.Start()
	if _, q := eng.Run(0); !q {
		panic("eval: event simulation did not converge")
	}

	nd := core.NewNDDisco(env, core.WithK(k))
	nd.UseSnapshot(c.buildSnapshot(g, k, env.Landmarks))
	vicAgree, lmAgree := 0, 0
	for v := 0; v < n; v++ {
		want := nd.Vicinity(graph.NodeID(v))
		got := p.VicinitySet(graph.NodeID(v))
		same := got.Size() == want.Size()
		for i := 0; same && i < want.Size(); i++ {
			same = got.ID(i) == want.ID(i) && got.Dist(i) == want.Dist(i)
		}
		if same {
			vicAgree++
		}
		// Landmark distance from the event run.
		best := graph.Inf
		for _, lm := range env.Landmarks {
			if d := p.BestDist(graph.NodeID(v), lm); d < best {
				best = d
			}
		}
		if env.IsLM[v] {
			best = 0
		}
		if best == env.LMDist[v] {
			lmAgree++
		}
	}

	// Later-packet stretch from both data planes. Routes are assembled
	// from each plane's own tables; identical tables must induce
	// identical stretch.
	ps := metrics.SamplePairs(rand.New(rand.NewSource(seed+5000)), n, pairs)
	sw := sweepPairs(ps, nd.Fork, (*core.NDDisco).ShortestDist,
		routed(g, func(f *core.NDDisco, s, t graph.NodeID) []graph.NodeID { return f.LaterRoute(s, t, core.ShortcutNone) }),
		func(_ *core.NDDisco, s, t graph.NodeID) (float64, bool) { return eventLaterLen(p, env, s, t), true })
	meanStatic, meanEvent := sw.mean(0), sw.mean(1)
	delta := 100 * abs(meanStatic-meanEvent) / meanStatic
	return &AccuracyResult{
		N:                 n,
		VicinityAgreement: float64(vicAgree) / float64(n),
		LMDistAgreement:   float64(lmAgree) / float64(n),
		StretchDeltaPct:   delta,
	}
}

// eventLaterLen computes the later-packet route length using only the
// event-driven protocol's converged tables (vicinity paths and landmark
// paths), mirroring NDDisco's routing logic.
func eventLaterLen(p *pathvector.Protocol, env *static.Env, s, t graph.NodeID) float64 {
	g := env.G
	if s == t {
		return 0
	}
	if env.IsLM[t] {
		return g.PathLength(p.BestPath(s, t))
	}
	if path := p.BestPath(s, t); path != nil {
		// t in s's vicinity (or a stored landmark route).
		return g.PathLength(path)
	}
	if rev := p.BestPath(t, s); rev != nil {
		// Handshake: t knows the path and tells s.
		return g.PathLength(rev)
	}
	// Landmark route: s ⇝ l_t plus t's explicit route, with the same
	// backtrack trimming the static router applies.
	lt := env.LMOf[t]
	up := p.BestPath(s, lt)
	down := env.AddrOf(t).Path
	total := g.PathLength(up) + g.PathLength(down)
	// Trim immediate backtrack across the joint (x,l,x -> x).
	for len(up) >= 2 && len(down) >= 2 && up[len(up)-2] == down[1] {
		total -= 2 * g.EdgeWeight(down[0], down[1])
		up = up[:len(up)-1]
		down = down[1:]
	}
	return total
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ErrorResult is the §5 "Error in Estimating Number of Nodes" experiment.
type ErrorResult struct {
	N           int
	ErrFrac     float64
	GroupMisses int     // (node, group) pairs with no resolver in the vicinity
	NodePairs   int     // total (node, group) pairs checked
	MeanStretch float64 // mean first-packet stretch under error
	BaseStretch float64 // mean first-packet stretch with exact estimates
	DeltaPct    float64
	Fallbacks   int // routes that needed the landmark DB
	Unreachable int // routes that failed outright (always 0: fallback covers)
}

// Format renders the experiment (paper: with 40% error all nodes reach all
// groups and mean stretch rises 0.6%; with 60% error a single node missed
// a single group).
func (r *ErrorResult) Format() string {
	return fmt.Sprintf(
		"Estimate-error experiment, n=%d, ±%.0f%% error\n"+
			"  vicinity/group misses: %d of %d (node,group) pairs\n"+
			"  mean first-packet stretch: %.4f (exact-estimate baseline %.4f, +%.2f%%)\n"+
			"  landmark-DB fallbacks: %d, unreachable: %d\n",
		r.N, 100*r.ErrFrac, r.GroupMisses, r.NodePairs,
		r.MeanStretch, r.BaseStretch, r.DeltaPct, r.Fallbacks, r.Unreachable)
}

// EstimateError reproduces the robustness experiment: inject uniform
// random error into every node's estimate of n, rebuild the sloppy
// grouping, and measure (a) how many (node, group) pairs lost their
// vicinity resolver and (b) the change in mean first-packet stretch. All
// PRNG draws (pair sample, error injection) happen serially up front, per
// the parallel.TaskSeed rule; the pair sweeps and the miss scan then fan
// out over the worker pool on snapshot-backed forks, with sums reduced in
// task order, so the result is identical at any worker count.
func (c Config) EstimateError(n int, seed int64, errFrac float64, pairs int) *ErrorResult {
	g := BuildTopo(TopoGnm, n, seed)

	// Serial up-front draws.
	basePairs := metrics.SamplePairs(rand.New(rand.NewSource(seed+6000)), n, pairs)
	est := estimate.InjectError(rand.New(rand.NewSource(seed+6001)), n, errFrac)

	baseEnv := static.NewEnv(g, seed)
	base := core.NewDisco(baseEnv, core.WithSeed(seed))
	c.installSnapshot(base)
	baseMean, _ := meanFirstStretch(base, basePairs)

	env := static.NewEnv(g, seed, static.WithNEst(est))
	d := core.NewDisco(env, core.WithSeed(seed))
	c.installSnapshot(d)

	// Miss scan: for every node s and every group id under s's own k, is
	// there a vicinity member w whose (mutual) group matches? Integer
	// tallies merge order-independently across workers.
	view := d.View
	type missCount struct{ misses, checked int }
	perNode := parallel.MapScratch(n, d.ND.Fork, func(nd *core.NDDisco, s int) missCount {
		sv := graph.NodeID(s)
		ks := view.KOf(sv)
		vs := nd.Vicinity(sv)
		var mc missCount
		for gid := uint64(0); gid < 1<<uint(ks); gid++ {
			mc.checked++
			found := false
			for i := 0; i < vs.Size(); i++ {
				if sloppy.GroupID(env.Hashes[vs.ID(i)], ks) == gid {
					found = true
					break
				}
			}
			if !found {
				mc.misses++
			}
		}
		return mc
	})
	misses, checked := 0, 0
	for _, mc := range perNode {
		misses += mc.misses
		checked += mc.checked
	}

	errMean, fb := meanFirstStretch(d, basePairs)
	return &ErrorResult{
		N:           n,
		ErrFrac:     errFrac,
		GroupMisses: misses,
		NodePairs:   checked,
		MeanStretch: errMean,
		BaseStretch: baseMean,
		DeltaPct:    100 * (errMean - baseMean) / baseMean,
		Fallbacks:   fb,
	}
}

// meanFirstStretch computes the mean first-packet stretch over ps on the
// worker pool, plus the total landmark-DB fallback count. The float sum
// reduces in pair order; fallback counters sum over forks
// (order-independent integers).
func meanFirstStretch(d *core.Disco, ps []metrics.Pair) (mean float64, fallbacks int) {
	sw := sweepPairs(ps, d.Fork, discoDist, routed(d.Env().G, discoFirst))
	for _, f := range sw.forks {
		fb, _ := f.Fallbacks()
		fallbacks += fb
	}
	return sw.mean(0), fallbacks
}

// ResolveImbalanceResult is the §4.5 consistent-hashing load-balance
// ablation: single vs multiple hash functions.
type ResolveImbalanceResult struct {
	N          int
	Landmarks  int
	Imbalance1 float64 // max/mean keys with 1 hash function
	Imbalance8 float64 // with 8
}

// Format renders the ablation.
func (r *ResolveImbalanceResult) Format() string {
	return fmt.Sprintf(
		"Resolution-DB load imbalance (max/mean), n=%d, %d landmarks: 1 hash fn %.2f, 8 hash fns %.2f\n",
		r.N, r.Landmarks, r.Imbalance1, r.Imbalance8)
}

// ResolveImbalance measures consistent hashing's load imbalance with 1 and
// 8 hash functions per landmark (§4.5: multiple functions cut the Θ(log n)
// imbalance).
func ResolveImbalance(n int, seed int64) *ResolveImbalanceResult {
	g := BuildTopo(TopoGnm, n, seed)
	env := static.NewEnv(g, seed)
	keys := make([]names.Hash, n)
	copy(keys, env.Hashes)
	d1 := core.NewDisco(env, core.WithResolveVNodes(1))
	d8 := core.NewDisco(env, core.WithResolveVNodes(8))
	return &ResolveImbalanceResult{
		N:          n,
		Landmarks:  len(env.Landmarks),
		Imbalance1: d1.DB.Imbalance(keys),
		Imbalance8: d8.DB.Imbalance(keys),
	}
}
