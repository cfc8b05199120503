package eval

import (
	"fmt"
	"math/rand"

	"disco/internal/graph"
	"disco/internal/parallel"
	"disco/internal/pathvector"
	"disco/internal/sim"
	"disco/internal/static"
	"disco/internal/vicinity"
)

// ChurnResult measures the incremental control cost of a single link
// failure — the step past the paper's "initial convergence only" messaging
// evaluation (§5). The cost splits into two very different phases:
// triggered withdrawals and reselection (Triggered — proportional to the
// failure's blast radius, tiny), and the periodic full-table refresh
// (Refresh — a fixed per-period cost on the order of one initial
// convergence, amortized over every failure in the period) that restores
// the exact vicinity invariant the compact acceptance rule cannot recover
// through triggered updates alone.
type ChurnResult struct {
	N         int
	Trials    int
	Initial   float64 // messages/node, initial convergence
	Triggered float64 // messages/node for withdrawal-driven re-convergence
	Refresh   float64 // messages/node for one full refresh round

	// Failed lists the links failed per trial (canonical endpoint order) —
	// all non-bridges, so no trial ever partitions the network. The bridge
	// regression test pins this.
	Failed []graph.EdgeKey

	// TriggeredEach is the per-trial triggered cost (messages/node), in
	// trial order — the samples the churn-timeline message model regresses
	// against the same failures' snapshot blast radii. Triggered above is
	// their mean.
	TriggeredEach []float64
}

// Format renders the comparison. The ratio lines need a nonzero initial
// convergence cost; when it is missing (a degenerate input that slipped
// past ChurnCost's validation) they are omitted rather than printed as
// NaN/Inf.
func (r *ChurnResult) Format() string {
	s := fmt.Sprintf(
		"Churn cost (NDDisco vicinity protocol), G(n,m) n=%d, %d failures\n"+
			"  initial convergence:        %.0f messages/node\n",
		r.N, r.Trials, r.Initial)
	if r.Initial <= 0 {
		return s + "  (no initial-convergence messages: per-failure ratios undefined)\n"
	}
	return s + fmt.Sprintf(
		"  triggered re-convergence:   %.1f messages/node per failure (%.2f%% of initial)\n"+
			"  periodic refresh round:     %.0f messages/node per period (%.1fx initial, amortized over all failures in the period)\n",
		r.Triggered, 100*r.Triggered/r.Initial, r.Refresh, r.Refresh/r.Initial)
}

// ChurnCost runs the experiment on the standard G(n,m) topology: converge
// once, then fail `trials` random non-bridge links one at a time on fresh
// clones and count the re-convergence messages. n < 2 or trials < 1 is an
// input error.
func ChurnCost(n int, seed int64, trials int) (*ChurnResult, error) {
	if n < 2 {
		return nil, fmt.Errorf("eval: churn needs n >= 2, got %d", n)
	}
	if trials < 1 {
		return nil, fmt.Errorf("eval: churn needs trials >= 1, got %d", trials)
	}
	return ChurnCostOn(BuildTopo(TopoGnm, n, seed), seed, trials)
}

// ChurnCostOn is ChurnCost on a caller-supplied connected graph (the
// bridge regression test runs it on topologies with known bridges). The
// failed links are drawn uniformly, redrawing deterministically whenever
// the draw lands on a bridge: failing a bridge would partition the
// network and fold a count-to-infinity withdrawal storm into the
// Triggered/Refresh averages, which are defined for fail-over — not
// partition — events.
func ChurnCostOn(g *graph.Graph, seed int64, trials int) (*ChurnResult, error) {
	n := g.N()
	if trials < 1 {
		return nil, fmt.Errorf("eval: churn needs trials >= 1, got %d", trials)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("eval: churn needs a connected graph; messages/node over a partitioned one would be silently skewed")
	}
	env := static.NewEnv(g, seed)
	k := vicinity.DefaultK(n)
	cfg := pathvector.Config{Mode: pathvector.ModeVicinity, K: k, IsLandmark: env.IsLM}

	// Bridge set once (O(n+m)); a graph whose every link is a bridge (a
	// tree) has no valid trial at all.
	bridges := g.Bridges()
	hasNonBridge := false
	for _, b := range bridges {
		if !b {
			hasNonBridge = true
			break
		}
	}
	if !hasNonBridge {
		return nil, fmt.Errorf("eval: churn needs a non-bridge link; every link of the graph is a bridge")
	}

	res := &ChurnResult{N: n, Trials: trials}
	// Draw every trial's failed link serially up front (preserving the
	// historical draw sequence: on bridge-free graphs the drawn links are
	// exactly what the unchecked draw produced). A draw that lands on a
	// bridge is discarded and redrawn — deterministically, since the
	// redraws extend the same serial stream.
	rng := rand.New(rand.NewSource(seed + 9000))
	type failure struct{ u, v graph.NodeID }
	fails := make([]failure, trials)
	for i := range fails {
		for {
			u := graph.NodeID(rng.Intn(n))
			es := g.Neighbors(u)
			if len(es) == 0 {
				continue // isolated node: redraw
			}
			e := es[rng.Intn(len(es))]
			if bridges[e.EID] {
				continue // bridge: failing it would partition G
			}
			fails[i] = failure{u: u, v: e.To}
			break
		}
		res.Failed = append(res.Failed, (graph.EdgeKey{U: fails[i].u, V: fails[i].v}).Norm())
	}

	// Converge once; the converged tables are the shared immutable input
	// every trial starts from. Each trial then clones the converged
	// instance — an O(state) copy instead of re-running the whole initial
	// convergence — and fails its link on the clone. Clones share the
	// read-only path slices and the graph; trials fan out over the worker
	// pool and their float tallies reduce in trial order.
	var baseEng sim.Engine
	base := pathvector.New(g, &baseEng, cfg)
	base.Start()
	if _, q := baseEng.Run(0); !q {
		return nil, fmt.Errorf("eval: churn initial convergence did not quiesce")
	}
	res.Initial = float64(base.Messages) / float64(n)

	type trialResult struct {
		triggered, refresh float64
		err                error
	}
	results := parallel.Map(trials, func(i int) trialResult {
		var eng sim.Engine
		p, err := base.Clone(&eng)
		if err != nil {
			return trialResult{err: err}
		}
		if err := p.FailLink(fails[i].u, fails[i].v); err != nil {
			return trialResult{err: err}
		}
		p.PruneStale()
		if _, q := eng.Run(0); !q {
			return trialResult{err: fmt.Errorf("eval: failure re-convergence did not quiesce")}
		}
		afterWithdraw := p.Messages
		p.RefreshUntilStable(16)
		return trialResult{
			triggered: float64(afterWithdraw) / float64(n),
			refresh:   float64(p.Messages-afterWithdraw) / float64(n),
		}
	})
	totalTriggered, totalRefresh := 0.0, 0.0
	for _, tr := range results {
		if tr.err != nil {
			return nil, tr.err
		}
		res.TriggeredEach = append(res.TriggeredEach, tr.triggered)
		totalTriggered += tr.triggered
		totalRefresh += tr.refresh
	}
	res.Triggered = totalTriggered / float64(trials)
	res.Refresh = totalRefresh / float64(trials)
	return res, nil
}
