package spr

import (
	"math/rand"
	"testing"

	"disco/internal/graph"
	"disco/internal/static"
	"disco/internal/topology"
)

func TestRouteIsShortest(t *testing.T) {
	g := topology.Geometric(rand.New(rand.NewSource(1)), 150, 8)
	env := static.NewEnv(g, 1)
	p := New(env)
	s := graph.NewSSSP(g)
	for dst := 0; dst < 150; dst += 13 {
		s.Run(graph.NodeID(dst))
		for src := 0; src < 150; src += 7 {
			if src == dst {
				continue
			}
			route := p.Route(graph.NodeID(src), graph.NodeID(dst))
			if route[0] != graph.NodeID(src) || route[len(route)-1] != graph.NodeID(dst) {
				t.Fatalf("endpoints wrong: %v", route)
			}
			// Float sums depend on association order (the route is summed
			// src-outward, the reference dst-outward), so compare within
			// an ulp-scale tolerance.
			if d := g.PathLength(route) - s.Dist(graph.NodeID(src)); d > 1e-9 || d < -1e-9 {
				t.Fatalf("route not shortest: %v vs %v", g.PathLength(route), s.Dist(graph.NodeID(src)))
			}
		}
	}
}

func TestStateEntriesLinear(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(2)), 100, 400)
	env := static.NewEnv(g, 2)
	p := New(env)
	entries := p.StateEntries()
	for v, e := range entries {
		want := 99 + g.Degree(graph.NodeID(v))
		if e != want {
			t.Fatalf("state at %d = %d want %d", v, e, want)
		}
	}
}
