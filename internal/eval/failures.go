package eval

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/parallel"
	"disco/internal/snapshot"
)

// The failure-scenario experiment family: the paper evaluates messaging
// "during initial convergence only, leaving continuous churn to future
// work" (§5), and the churn experiment prices the control messages of one
// failure. This file measures the other half — what the data plane
// delivers AFTER failures — by repairing the shared route-state snapshot
// incrementally (snapshot.ApplyFailures, blast-radius cost) and routing
// Disco/NDDisco/S4 over the repaired state: random link failures, random
// node failures, regional outages (a failed BFS ball) and link flapping,
// reporting delivery ratio and post-failure stretch against shortest
// paths on the failed topology. Because repair shares every untouched
// shard with the parent snapshot, the family runs at the same paper-scale
// sizes the compact encoding unlocked (-full).

// legAgg accumulates one leg's delivered-pair count and stretch sum.
// Legs are indexed in column order: Disco-first, ND-first, ND-later,
// S4-first, S4-later.
type legAgg struct {
	Delivered  int
	StretchSum float64
}

// legTally is the routed-pairs side of one dynamics table row: what every
// failures, churn-timeline and serve-storm row accumulates from its sampled
// pairs and formats the same way.
type legTally struct {
	Pairs     int // sampled pairs
	Connected int // pairs whose endpoints remain connected
	Legs      [numLegs]legAgg
}

// add folds one batch of routed pairs into the tally: a pair the sweep
// skipped is disconnected, a leg that reads 0 did not deliver.
func (t *legTally) add(sw *pairSweep[*planes]) {
	for i := range sw.reached {
		t.Pairs++
		st := sw.row(i)
		if st == nil {
			continue
		}
		t.Connected++
		for leg, x := range st {
			if x > 0 {
				t.Legs[leg].Delivered++
				t.Legs[leg].StretchSum += x
			}
		}
	}
}

// pct is a as a percentage of b, 0 of nothing.
func pct[T int | uint64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// connPct is the share of sampled pairs still connected.
func (t *legTally) connPct() float64 { return pct(t.Connected, t.Pairs) }

// dlvPct is leg's delivery ratio over connected pairs.
func (t *legTally) dlvPct(leg int) float64 { return pct(t.Legs[leg].Delivered, t.Connected) }

// meanStretch is leg's mean stretch over the pairs it delivered.
func (t *legTally) meanStretch(leg int) float64 {
	if t.Legs[leg].Delivered == 0 {
		return 0
	}
	return t.Legs[leg].StretchSum / float64(t.Legs[leg].Delivered)
}

// FailureRow is one scenario × parameter row of the failures table,
// aggregated over its trials.
type FailureRow struct {
	Scenario string
	Param    string
	Trials   int

	LinksFailed int     // total links failed, summed over trials
	Repairs     int     // ApplyFailures calls performed (flap > trials)
	ShardsPct   float64 // mean % of snapshot shards rebuilt per repair

	legTally // sampled pairs, summed over trials
}

// FailureResult is the full table.
type FailureResult struct {
	Kind   TopoKind
	N      int
	PairsN int // pairs sampled per trial
	Rows   []FailureRow
}

// Format renders the table: per row the repair cost (percentage of
// snapshot shards — vicinity windows plus forest rows — rebuilt per
// repair), the surviving connectivity, and per-leg delivery ratio and
// mean stretch over delivered pairs.
func (r *FailureResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Failure scenarios — %s, n=%d (%d pairs × trials per row; stretch vs shortest path on the failed topology)\n",
		r.Kind, r.N, r.PairsN)
	fmt.Fprintf(&b, "  %-12s %-9s %6s %8s %7s |%8s %7s %7s %7s %7s |%8s %8s %8s %8s %8s\n",
		"scenario", "param", "links", "shards%", "conn%",
		"dlv:"+legNames[0], legNames[1], legNames[2], legNames[3], legNames[4],
		"st:"+legNames[0], legNames[1], legNames[2], legNames[3], legNames[4])
	for _, row := range r.Rows {
		dlv, st := row.dlvPct, row.meanStretch
		fmt.Fprintf(&b, "  %-12s %-9s %6.1f %8.2f %7.1f |%8.1f %7.1f %7.1f %7.1f %7.1f |%8.3f %8.3f %8.3f %8.3f %8.3f\n",
			row.Scenario, row.Param,
			float64(row.LinksFailed)/float64(row.Trials), row.ShardsPct, row.connPct(),
			dlv(0), dlv(1), dlv(2), dlv(3), dlv(4),
			st(0), st(1), st(2), st(3), st(4))
	}
	return b.String()
}

// failureSpec defines one row's failure-drawing rule.
type failureSpec struct {
	scenario string
	param    string
	flaps    int // > 1 for the flapping scenario
	draw     func(rng *rand.Rand, g *graph.Graph, edges []graph.EdgeKey) []graph.EdgeKey
}

// failureSpecs builds the scenario grid for size n over base graph g.
func failureSpecs(n int, g *graph.Graph) []failureSpec {
	m := g.M()
	pickEdges := func(rng *rand.Rand, edges []graph.EdgeKey, count int) []graph.EdgeKey {
		seen := make(map[int]bool, count)
		out := make([]graph.EdgeKey, 0, count)
		for len(out) < count {
			i := rng.Intn(len(edges))
			if seen[i] {
				continue
			}
			seen[i] = true
			out = append(out, edges[i])
		}
		return out
	}
	linkRow := func(f float64) failureSpec {
		count := int(math.Round(f * float64(m)))
		if count < 1 {
			count = 1
		}
		return failureSpec{
			scenario: "link-random",
			param:    fmt.Sprintf("f=%.1f%%", 100*f),
			draw: func(rng *rand.Rand, g *graph.Graph, edges []graph.EdgeKey) []graph.EdgeKey {
				return pickEdges(rng, edges, count)
			},
		}
	}
	incident := func(g *graph.Graph, nodes []graph.NodeID) []graph.EdgeKey {
		var out []graph.EdgeKey
		for _, v := range nodes {
			for _, e := range g.Neighbors(v) {
				out = append(out, (graph.EdgeKey{U: v, V: e.To}).Norm())
			}
		}
		return out // ApplyFailures deduplicates
	}
	nodeRow := func(f float64) failureSpec {
		count := int(math.Round(f * float64(n)))
		if count < 1 {
			count = 1
		}
		return failureSpec{
			scenario: "node-random",
			param:    fmt.Sprintf("f=%.1f%%", 100*f),
			draw: func(rng *rand.Rand, g *graph.Graph, edges []graph.EdgeKey) []graph.EdgeKey {
				seen := make(map[graph.NodeID]bool, count)
				nodes := make([]graph.NodeID, 0, count)
				for len(nodes) < count {
					v := graph.NodeID(rng.Intn(n))
					if seen[v] {
						continue
					}
					seen[v] = true
					nodes = append(nodes, v)
				}
				return incident(g, nodes)
			},
		}
	}
	regionRow := func(ball int) failureSpec {
		return failureSpec{
			scenario: "region",
			param:    fmt.Sprintf("ball=%d", ball),
			draw: func(rng *rand.Rand, g *graph.Graph, edges []graph.EdgeKey) []graph.EdgeKey {
				center := graph.NodeID(rng.Intn(n))
				sp := graph.NewSSSP(g)
				sp.RunK(center, ball)
				nodes := append([]graph.NodeID(nil), sp.Order()...)
				return incident(g, nodes)
			},
		}
	}
	ball1, ball2 := n/128, n/32
	if ball1 < 8 {
		ball1 = 8
	}
	if ball2 < 16 {
		ball2 = 16
	}
	return []failureSpec{
		linkRow(0.002),
		linkRow(0.01),
		linkRow(0.05),
		nodeRow(0.005),
		nodeRow(0.02),
		regionRow(ball1),
		regionRow(ball2),
		{
			scenario: "flap",
			param:    "1 link ×5",
			flaps:    5,
			draw: func(rng *rand.Rand, g *graph.Graph, edges []graph.EdgeKey) []graph.EdgeKey {
				return pickEdges(rng, edges, 1)
			},
		},
	}
}

// FailureScenarios runs the family on one topology: build the converged
// environment and its shared snapshot once, then per trial draw a failure
// set, repair the snapshot incrementally, and route sampled pairs over
// the repaired state. Trials derive their randomness via the TaskSeed
// rule and pair routing fans out over the worker pool with results merged
// in pair order, so output is bit-identical at any -workers value.
func (c Config) FailureScenarios(kind TopoKind, n int, seed int64, pairs int) *FailureResult {
	const trials = 3
	p := c.BuildProtocols(kind, n, seed)
	g := p.Env.G
	snap := c.buildSnapshot(g, p.Disco.ND.K, p.Env.Landmarks)

	// Edge list indexed by EID for uniform link draws.
	edges := g.EdgeList()

	res := &FailureResult{Kind: kind, N: n, PairsN: pairs}
	for rowIdx, spec := range failureSpecs(n, g) {
		row := FailureRow{Scenario: spec.scenario, Param: spec.param, Trials: trials}
		for trial := 0; trial < trials; trial++ {
			rng := parallel.TaskRNG(seed*1000003+int64(rowIdx), trial)
			fails := spec.draw(rng, g, edges)
			rep, err := snap.ApplyFailures(fails)
			if err != nil {
				panic(fmt.Sprintf("eval: failure repair: %v", err))
			}
			st := rep.RepairStats()
			flaps := spec.flaps
			if flaps < 1 {
				flaps = 1
			}
			// A flapping link repairs once per down transition; the parent
			// snapshot serves the up phases for free (immutability), so only
			// the repeated repair cost accumulates. Repair is deterministic,
			// so the later down transitions cost exactly what the first one
			// measured — account for them without redoing the work.
			row.LinksFailed += st.FailedLinks
			row.ShardsPct += float64(flaps) * 100 * st.ShardsRebuilt()
			row.Repairs += flaps

			row.add(routeFailurePairs(p, rep, metrics.SamplePairs(rng, n, pairs)))
		}
		row.ShardsPct /= float64(row.Repairs)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// numLegs is the number of (protocol, packet-phase) columns every
// dynamics table reports, and legNames their labels in column order —
// the single source both repairedLegs and the failures/churn-timeline
// table headers render from, so reordering or adding a leg cannot
// silently mislabel a column.
const numLegs = 5

var legNames = [numLegs]string{"D-f", "ND-f", "ND-l", "S4-f", "S4-l"}

// routeFailurePairs routes every sampled pair over the repaired snapshot
// on the worker pool: one column per dynamics leg, stretch against shortest
// paths on the failed topology. The same sweep serves the failures family,
// the churn timeline and the serve storm's probe — protocols appear only as
// the planes' (dynamics.Router, packet phase) legs.
func routeFailurePairs(p *Protocols, rep *snapshot.Snapshot, ps []metrics.Pair) *pairSweep[*planes] {
	fg := rep.Graph()
	cols := make([]column[*planes], numLegs)
	for leg := range cols {
		cols[leg] = func(pl *planes, s, t graph.NodeID) (float64, bool) {
			var ok bool
			pl.buf, ok = pl.legs[leg].r.AppendRoute(pl.buf[:0], s, t, pl.legs[leg].later)
			return fg.PathLength(pl.buf), ok
		}
	}
	return sweepPairs(ps, p.forkRepaired(rep), planesDist, cols...)
}
