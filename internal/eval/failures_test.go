package eval

import (
	"math"
	"strings"
	"testing"

	"disco/internal/dynamics"
	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/parallel"
	"disco/internal/pathtree"
)

// TestRepairedRoutingValidity drives the repaired-state routing paths of
// core and s4 directly and checks the properties the failures experiment
// depends on: every delivered route is a real path on the failed topology
// with the right endpoints and stretch >= 1, delivery never crosses a
// partition, NDDisco delivers whenever the destination's component kept a
// landmark, and S4's later packets deliver exactly within the component
// (cluster flooding fills landmark-less components).
func TestRepairedRoutingValidity(t *testing.T) {
	n := 192
	p := Config{}.BuildProtocols(TopoGnm, n, 7)
	g := p.Env.G
	snap := Config{}.buildSnapshot(g, p.Disco.ND.K, p.Env.Landmarks)

	// A mixed failure: one whole node plus a handful of links — enough to
	// partition a few stragglers at this size.
	rng := parallel.TaskRNG(7, 0)
	var fails []graph.EdgeKey
	victim := graph.NodeID(rng.Intn(n))
	for _, e := range g.Neighbors(victim) {
		fails = append(fails, (graph.EdgeKey{U: victim, V: e.To}).Norm())
	}
	for i := 0; i < 6; i++ {
		u := graph.NodeID(rng.Intn(n))
		es := g.Neighbors(u)
		fails = append(fails, (graph.EdgeKey{U: u, V: es[rng.Intn(len(es))].To}).Norm())
	}
	rep, err := snap.ApplyFailures(fails)
	if err != nil {
		t.Fatalf("ApplyFailures: %v", err)
	}
	fg := rep.Graph()
	labels, _ := fg.Components()
	hasLM := map[int32]bool{}
	for _, lm := range p.Env.Landmarks {
		hasLM[labels[lm]] = true
	}

	dest := pathtree.NewLazy(fg)
	d := p.Disco.ForkRepaired(rep)
	s4f := p.S4.ForkRepaired(rep, dest)
	check := func(name string, s, tt graph.NodeID, route []graph.NodeID, ok bool) {
		t.Helper()
		connected := labels[s] == labels[tt]
		if ok && !connected {
			t.Fatalf("%s: delivered %d->%d across a partition", name, s, tt)
		}
		if !ok {
			return
		}
		if len(route) == 0 || route[0] != s || route[len(route)-1] != tt {
			t.Fatalf("%s: route %d->%d has wrong endpoints: %v", name, s, tt, route)
		}
		dest.Bind(tt)
		short := dest.Dist(s)
		st := metrics.Stretch(fg.PathLength(route), short) // panics on a dead hop
		if st < 1-1e-9 || math.IsNaN(st) {
			t.Fatalf("%s: route %d->%d has stretch %v < 1", name, s, tt, st)
		}
	}
	for _, pr := range metrics.SamplePairs(parallel.TaskRNG(7, 1), n, 300) {
		s, tt := graph.NodeID(pr.Src), graph.NodeID(pr.Dst)
		connected := labels[s] == labels[tt]

		r, ok := d.ND.RepairedFirstRoute(s, tt)
		check("ND-first", s, tt, r, ok)
		if connected && hasLM[labels[tt]] && !ok {
			t.Fatalf("ND-first: %d->%d undelivered although %d's component kept a landmark", s, tt, tt)
		}
		r, ok = d.ND.RepairedLaterRoute(s, tt)
		check("ND-later", s, tt, r, ok)
		r, ok = d.RepairedFirstRoute(s, tt)
		check("Disco-first", s, tt, r, ok)
		r, ok = s4f.AppendRoute(nil, s, tt, false)
		check("S4-first", s, tt, r, ok)
		r, ok = s4f.AppendRoute(nil, s, tt, true)
		check("S4-later", s, tt, r, ok)
		if ok != connected {
			t.Fatalf("S4-later: delivery=%v connected=%v for %d->%d (cluster flooding must fill the component)", ok, connected, s, tt)
		}
	}
}

// TestFailureScenariosFormat sanity-checks the table wiring (full
// determinism and values are covered by TestWorkerCountInvariance and the
// golden).
func TestFailureScenariosFormat(t *testing.T) {
	out := Config{}.FailureScenarios(TopoGnm, 128, 3, 40).Format()
	for _, want := range []string{"link-random", "node-random", "region", "flap", "shards%"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("format printed NaN/Inf:\n%s", out)
	}
}

// TestRepairedRoutesReportPartition pins the ok-returning route call of
// the one routing core: on a snapshot that isolates a node, every
// protocol's AppendRoute reports ok=false in both directions and appends
// nothing — never the must-deliver panic of FirstRoute/LaterRoute.
func TestRepairedRoutesReportPartition(t *testing.T) {
	p := Config{}.BuildProtocols(TopoGnm, 128, 5)
	g := p.Env.G
	victim := graph.NodeID(0)
	for p.Env.IsLM[victim] {
		victim++
	}
	var fails []graph.EdgeKey
	for _, e := range g.Neighbors(victim) {
		fails = append(fails, (graph.EdgeKey{U: victim, V: e.To}).Norm())
	}
	rep, err := Config{}.buildSnapshot(g, p.Disco.ND.K, p.Env.Landmarks).ApplyFailures(fails)
	if err != nil {
		t.Fatalf("ApplyFailures: %v", err)
	}
	d, s4f := p.Disco.ForkRepaired(rep), p.S4.ForkRepaired(rep, nil)
	other := (victim + 1) % graph.NodeID(g.N())
	for _, leg := range []struct {
		name  string
		r     dynamics.Router
		later bool
	}{
		{"NDDisco-first", d.ND, false},
		{"NDDisco-later", d.ND, true},
		{"Disco-first", d, false},
		{"Disco-later", d, true},
		{"S4-first", s4f, false},
		{"S4-later", s4f, true},
	} {
		for _, pr := range [][2]graph.NodeID{{other, victim}, {victim, other}} {
			if route, ok := leg.r.AppendRoute(nil, pr[0], pr[1], leg.later); ok || len(route) != 0 {
				t.Errorf("%s: delivered %d->%d across the partition: %v, %v", leg.name, pr[0], pr[1], route, ok)
			}
		}
	}
}
