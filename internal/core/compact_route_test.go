package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"disco/internal/graph"
	"disco/internal/snapshot"
	"disco/internal/static"
	"disco/internal/topology"
)

// twinSnapshot is one snapshot of a chain in both storage regimes, built
// and repaired in lockstep.
type twinSnapshot struct {
	name           string
	exact, compact *snapshot.Snapshot
	intact         bool // no link has failed: the oracle's bounds apply
}

// twinChain builds g's snapshot in both regimes and repairs both through
// the same events: first every link of the lowest-degree non-landmark node
// (a partition, so some windows fall short and some pairs are
// undeliverable), then seeded non-bridge failures until the chain folds.
// It returns the base, the last head before the fold and the folded head.
func twinChain(t *testing.T, env *static.Env, k int, seed int64) []twinSnapshot {
	t.Helper()
	exact, err := snapshot.Build(env.G, k, env.Landmarks)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := snapshot.BuildCompact(env.G, k, env.Landmarks)
	if err != nil {
		t.Fatal(err)
	}
	out := []twinSnapshot{{name: "base", exact: exact, compact: compact, intact: true}}
	apply := func(links []graph.EdgeKey) {
		t.Helper()
		if exact, err = exact.ApplyFailures(links); err != nil {
			t.Fatal(err)
		}
		if compact, err = compact.ApplyFailures(links); err != nil {
			t.Fatal(err)
		}
		if exact.RepairStats().Folded != compact.RepairStats().Folded {
			t.Fatal("the twin chains folded at different events")
		}
	}
	cut := graph.None
	for v := graph.NodeID(0); int(v) < env.N(); v++ {
		if !env.IsLM[v] && (cut == graph.None || env.G.Degree(v) < env.G.Degree(cut)) {
			cut = v
		}
	}
	var links []graph.EdgeKey
	for _, e := range env.G.Neighbors(cut) {
		links = append(links, (graph.EdgeKey{U: cut, V: e.To}).Norm())
	}
	apply(links)
	rng := rand.New(rand.NewSource(seed))
	nonBridge := func() []graph.EdgeKey {
		g := exact.Graph()
		bridge, edges := g.Bridges(), g.EdgeList()
		for {
			if i := rng.Intn(len(edges)); !bridge[i] {
				return edges[i : i+1]
			}
		}
	}
	head := twinSnapshot{name: "repaired chain head", exact: exact, compact: compact}
	for step := 0; ; step++ {
		if step == 200 {
			t.Fatal("the chain never folded")
		}
		apply(nonBridge())
		if compact.RepairStats().Folded {
			break
		}
		head.exact, head.compact = exact, compact
	}
	if head.compact.OverlayShards() == 0 {
		t.Fatal("the unfolded chain head reads no overlay")
	}
	out = append(out, head)
	return append(out, twinSnapshot{name: "folded chain head", exact: exact, compact: compact})
}

// oracleRun runs a hop-by-hop forward and returns its path, or the panic
// it raised on a pair the repaired topology cannot forward.
func oracleRun(fn func() []graph.NodeID) (path []graph.NodeID, msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	return fn(), ""
}

// TestCompactRoutesMatchExact is the compact read path's differential
// test. Every (s, t) of a 256-node map (G(n,m) and router-like, so k=46
// and the windows of many owners share whatever a fork keeps per owner) is
// routed on a fork of each compact snapshot of twinChain and on a fork of
// its exact twin: Disco's RepairedFirstRoute and RepairedLaterRoute, with
// the default and the closest-member group selection, and NDDisco's walk
// under To-Destination (AppendRoute) and Up-Down Stream shortcuts, first
// and later packet. Every route, and every ok, must be the exact twin's.
//
// The hop-by-hop oracle (ForwardFirst, ForwardLater and Disco's
// ForwardFirst, which read each node's state through the stateless
// snapshot reads) must forward every pair along the exact twin's path too,
// or panic alike where the repaired topology cannot forward it; on the
// intact base, where the oracle's bounds apply, every materialized route
// is no longer than the packet the oracle forwards. With -short, every
// eighth source routes to every destination.
func TestCompactRoutesMatchExact(t *testing.T) {
	const n = 256
	for _, m := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm", topology.Gnm(rand.New(rand.NewSource(61)), n, 4*n)},
		{"routerlike", topology.RouterLike(rand.New(rand.NewSource(62)), n)},
	} {
		t.Run(m.name, func(t *testing.T) {
			env := static.NewEnv(m.g, 63)
			protos := []*Disco{NewDisco(env, WithSeed(63)), NewDisco(env, WithSeed(63), WithClosestMember())}
			for _, twin := range twinChain(t, env, protos[0].ND.K, 64) {
				t.Run(twin.name, func(t *testing.T) {
					for i, d := range protos {
						compareTwinRoutes(t, env, d, twin, i == 0)
					}
				})
			}
		})
	}
}

// compareTwinRoutes routes every pair on forks of d over both halves of
// twin; see TestCompactRoutesMatchExact. Only Disco's first packet depends
// on the group selection, so all reports whether to route the rest.
func compareTwinRoutes(t *testing.T, env *static.Env, d *Disco, twin twinSnapshot, all bool) {
	t.Helper()
	ex, cp := d.ForkRepaired(twin.exact), d.ForkRepaired(twin.compact)
	type route func(f *Disco, buf []graph.NodeID, s, t graph.NodeID) ([]graph.NodeID, bool)
	routes := []struct {
		name string
		fn   route
	}{
		{"Disco.RepairedFirstRoute", func(f *Disco, _ []graph.NodeID, s, t graph.NodeID) ([]graph.NodeID, bool) {
			return f.RepairedFirstRoute(s, t)
		}},
		{"Disco.RepairedLaterRoute", func(f *Disco, _ []graph.NodeID, s, t graph.NodeID) ([]graph.NodeID, bool) {
			return f.RepairedLaterRoute(s, t)
		}},
	}
	for _, later := range []bool{false, true} {
		routes = append(routes,
			struct {
				name string
				fn   route
			}{fmt.Sprintf("NDDisco.AppendRoute(later=%v)", later), func(f *Disco, buf []graph.NodeID, s, t graph.NodeID) ([]graph.NodeID, bool) {
				return f.ND.AppendRoute(buf, s, t, later)
			}},
			struct {
				name string
				fn   route
			}{fmt.Sprintf("NDDisco Up-Down (later=%v)", later), func(f *Disco, buf []graph.NodeID, s, t graph.NodeID) ([]graph.NodeID, bool) {
				return f.ND.appendRoute(buf, s, t, ShortcutUpDownStream, later)
			}})
	}
	oracles := []struct {
		name  string
		fn    func(f *Disco, s, t graph.NodeID) []graph.NodeID
		route int // the routes entry the oracle forwards
	}{
		{"NDDisco.ForwardFirst", func(f *Disco, s, t graph.NodeID) []graph.NodeID { return f.ND.ForwardFirst(s, t) }, 2},
		{"NDDisco.ForwardLater", func(f *Disco, s, t graph.NodeID) []graph.NodeID { return f.ND.ForwardLater(s, t) }, 4},
		{"Disco.ForwardFirst", func(f *Disco, s, t graph.NodeID) []graph.NodeID { return f.ForwardFirst(s, t) }, 0},
	}
	if !all {
		routes, oracles = routes[:1], oracles[2:]
	}
	exBuf, cpBuf := make([]graph.NodeID, 0, 64), make([]graph.NodeID, 0, 64)
	got := make([][]graph.NodeID, len(routes))
	step := graph.NodeID(1)
	if testing.Short() {
		step = 8
	}
	for s := graph.NodeID(0); int(s) < env.N(); s += step {
		for dst := graph.NodeID(0); int(dst) < env.N(); dst++ {
			for i, r := range routes {
				want, wantOK := r.fn(ex, exBuf[:0], s, dst)
				route, ok := r.fn(cp, cpBuf[:0], s, dst)
				if ok != wantOK || !slices.Equal(route, want) {
					t.Fatalf("%s %s(%d, %d): compact (%v, %v), exact (%v, %v)", twin.name, r.name, s, dst, route, ok, want, wantOK)
				}
				got[i] = append(got[i][:0], route...)
			}
			for _, o := range oracles {
				want, wantMsg := oracleRun(func() []graph.NodeID { return o.fn(ex, s, dst) })
				path, msg := oracleRun(func() []graph.NodeID { return o.fn(cp, s, dst) })
				if msg != wantMsg || !slices.Equal(path, want) {
					t.Fatalf("%s %s(%d, %d): compact %v (panic %q), exact %v (panic %q)", twin.name, o.name, s, dst, path, msg, want, wantMsg)
				}
				if twin.intact && env.G.PathLength(got[o.route]) > env.G.PathLength(path)+eps {
					t.Fatalf("%s(%d, %d): materialized route %v is longer than the forwarded %v", o.name, s, dst, got[o.route], path)
				}
			}
		}
	}
}
