package eval

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"disco/internal/core"
	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/parallel"
	"disco/internal/static"
)

// Operator-chosen landmarks (§6): "although Disco chooses landmarks
// randomly, its state and stretch bounds require only that each node has
// at least one landmark within its vicinity and that there are O~(sqrt(n))
// total landmarks. These rules would permit an operator to choose
// landmarks in non-random ways, for example to pick a more
// well-provisioned landmark." This experiment swaps the random landmark
// set for the same-sized set of highest-degree ("well-provisioned") nodes
// and measures the effect on stretch, state balance and address size.

// LandmarkStrategyRow is one strategy's measurements.
type LandmarkStrategyRow struct {
	Name          string
	FirstStretch  float64 // mean first-packet stretch (No Path Knowledge)
	LaterStretch  float64
	MaxState      int
	MeanAddrBytes float64
	Fallbacks     int
	VicinityMiss  int // nodes with no landmark in their vicinity
}

// LandmarkStrategyResult compares landmark-selection strategies.
type LandmarkStrategyResult struct {
	N    int
	Kind TopoKind
	Rows []LandmarkStrategyRow
}

// Format renders the comparison.
func (r *LandmarkStrategyResult) Format() string {
	out := fmt.Sprintf("Operator-chosen landmarks (§6), %s n=%d\n", r.Kind, r.N)
	out += fmt.Sprintf("  %-12s %12s %12s %10s %12s %10s %8s\n",
		"strategy", "first-stretch", "later-stretch", "max-state", "addr-bytes", "fallbacks", "lm-miss")
	for _, row := range r.Rows {
		out += fmt.Sprintf("  %-12s %12.3f %12.3f %10d %12.2f %10d %8d\n",
			row.Name, row.FirstStretch, row.LaterStretch, row.MaxState,
			row.MeanAddrBytes, row.Fallbacks, row.VicinityMiss)
	}
	return out
}

// LandmarkStrategies runs the comparison on one topology: random
// self-selection (the protocol default) vs the same number of
// highest-degree nodes vs the same number of lowest-degree nodes (an
// adversarially bad operator).
func (c Config) LandmarkStrategies(kind TopoKind, n int, seed int64, pairs int) *LandmarkStrategyResult {
	g := BuildTopo(kind, n, seed)
	base := static.NewEnv(g, seed)
	count := len(base.Landmarks)

	byDegree := make([]graph.NodeID, n)
	for i := range byDegree {
		byDegree[i] = graph.NodeID(i)
	}
	slices.SortFunc(byDegree, func(a, b graph.NodeID) int {
		return cmp.Or(cmp.Compare(g.Degree(b), g.Degree(a)), cmp.Compare(a, b))
	})
	top := slices.Clone(byDegree[:count])
	bottom := slices.Clone(byDegree[n-count:])
	slices.Sort(top)
	slices.Sort(bottom)

	res := &LandmarkStrategyResult{N: n, Kind: kind}
	ps := metrics.SamplePairs(rand.New(rand.NewSource(seed+7000)), n, pairs)

	measure := func(name string, lms []graph.NodeID) {
		var env *static.Env
		if lms == nil {
			env = base
		} else {
			env = static.NewEnv(g, seed, static.WithLandmarks(lms))
		}
		d := core.NewDisco(env, core.WithSeed(seed))
		// Each strategy has its own landmark set, hence its own snapshot;
		// the build is parallel and every fork below shares it.
		c.installSnapshot(d)
		row := LandmarkStrategyRow{Name: name}
		sw := sweepPairs(ps, d.Fork, discoDist, routed(g, discoFirst), routed(g, discoLater))
		row.FirstStretch, row.LaterStretch = sw.mean(0), sw.mean(1)
		for _, f := range sw.forks {
			fb, _ := f.Fallbacks()
			row.Fallbacks += fb
		}
		_, dE, _, _ := d.StateVectors()
		for _, e := range dE {
			if e > row.MaxState {
				row.MaxState = e
			}
		}
		mean, _, _ := env.AddrSizeStats()
		row.MeanAddrBytes = mean
		// Count nodes violating the "landmark within vicinity" condition
		// the guarantees need — one truncated Dijkstra per node, fanned
		// out with per-worker forks and integer-summed misses.
		type missTally struct {
			nd     *core.NDDisco
			misses int
		}
		tallies := parallel.RunGather(n,
			func() *missTally { return &missTally{nd: d.ND.Fork()} },
			func(t *missTally, v int) {
				if !t.nd.VicinityContains(graph.NodeID(v), env.LMOf[v]) {
					t.misses++
				}
			})
		for _, t := range tallies {
			row.VicinityMiss += t.misses
		}
		res.Rows = append(res.Rows, row)
	}
	measure("random", nil)
	measure("high-degree", top)
	measure("low-degree", bottom)
	return res
}
