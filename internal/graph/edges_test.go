package graph_test

import (
	"math/rand"
	"testing"

	"disco/internal/graph"
	"disco/internal/topology"
)

// TestEdgeLookupEitherRow: EdgeWeight and EdgeID search the shorter of the
// two rows, so on a hub's links they read the leaf's. Both orientations of
// every pair asked must give what a search of u's own row gives — the
// link's weight and EID, or -1 for a non-adjacent pair.
func TestEdgeLookupEitherRow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"star", topology.Star(30)},
		{"routerlike", topology.RouterLike(rng, 1000)},
		{"geometric", topology.Geometric(rng, 300, 6)},
	} {
		g := c.g
		// uRow is the lookup in u's row alone.
		uRow := func(u, v graph.NodeID) (float64, int32) {
			if p := g.PortOf(u, v); p >= 0 {
				e := g.Neighbors(u)[p]
				return e.Weight, e.EID
			}
			return -1, -1
		}
		hub := graph.NodeID(0)
		for v := range graph.NodeID(g.N()) {
			if g.Degree(v) > g.Degree(hub) {
				hub = v
			}
		}
		var pairs [][2]graph.NodeID
		for _, e := range g.Neighbors(hub) { // the hub's links, from both ends
			pairs = append(pairs, [2]graph.NodeID{hub, e.To})
		}
		for range 2000 { // mostly non-adjacent
			pairs = append(pairs, [2]graph.NodeID{graph.NodeID(rng.Intn(g.N())), graph.NodeID(rng.Intn(g.N()))})
		}
		adjacent := 0
		for _, p := range pairs {
			for _, uv := range [][2]graph.NodeID{p, {p[1], p[0]}} {
				u, v := uv[0], uv[1]
				wantW, wantID := uRow(u, v)
				if got := g.EdgeWeight(u, v); got != wantW {
					t.Errorf("%s: EdgeWeight(%d,%d) = %v, u's row says %v", c.name, u, v, got, wantW)
				}
				if got := g.EdgeID(u, v); got != wantID {
					t.Errorf("%s: EdgeID(%d,%d) = %d, u's row says %d", c.name, u, v, got, wantID)
				}
				if wantID >= 0 {
					adjacent++
				}
			}
		}
		if adjacent < 2*g.Degree(hub) || adjacent == 2*len(pairs) {
			t.Fatalf("%s: %d of %d lookups adjacent: the table misses a case", c.name, adjacent, 2*len(pairs))
		}
	}
}
