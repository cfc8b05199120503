package snapshot

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"disco/internal/bits"
	"disco/internal/graph"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

// checkCarriedFold folds s and requires every forest row the fold encoded
// with a port carry to be, byte for byte, the row encodeForestRow writes
// from the row's parents alone, as a build does.
func checkCarriedFold(t testing.TB, s *Snapshot) {
	t.Helper()
	cs := s.fold().cs
	ref := *cs
	ref.forest = make([]byte, len(cs.forest))
	var w bits.Writer
	for row := range s.landmarks {
		ref.encodeForestRow(&w, row, s.forestRow(row), nil)
		got := cs.forest[row*cs.rowBytes : (row+1)*cs.rowBytes]
		if want := ref.forest[row*cs.rowBytes : (row+1)*cs.rowBytes]; !bytes.Equal(got, want) {
			t.Fatalf("forest row %d: the carried fold wrote %x, a full re-encode %x", row, got, want)
		}
	}
}

// widthCrossers returns links whose failures, in order, take a node from
// degree 2 to 1 and another from 4 to 3 — where Width(deg+1), the node's
// port field width, drops a bit; restored, they widen it again. Each node
// is the lowest-degree one of degree at least 2 (4) and loses links until
// it has 1 (3) left. The links may be bridges: a repair may cut nodes off.
func widthCrossers(t *testing.T, g *graph.Graph) []graph.EdgeKey {
	t.Helper()
	var links []graph.EdgeKey
	used := graph.None
	for _, deg := range []int{2, 4} {
		v := graph.None
		for u := range graph.NodeID(g.N()) {
			if u != used && g.Degree(u) >= deg && (v == graph.None || g.Degree(u) < g.Degree(v)) {
				v = u
			}
		}
		if v == graph.None {
			t.Fatalf("no node of degree %d or more", deg)
		}
		for _, e := range g.Neighbors(v)[:g.Degree(v)-deg+1] {
			if key := (graph.EdgeKey{U: v, V: e.To}).Norm(); !slices.Contains(links, key) {
				links = append(links, key)
			}
		}
		used = v
	}
	return links
}

// TestFoldCarriesPorts drives compact chains on router-like 2048 and
// geometric 256 through the events a carried port can get wrong: degrees
// crossing a field-width boundary (2→1, 4→3 and back), links restored
// that the store's graph lacks (the chain is folded while they are down),
// a node whose neighbour list changes at an unchanged degree, and a node
// cut off, whose fields hold the None sentinel. At every step the head's
// fold must write each forest row exactly as a full re-encode of the
// row's parents does.
func TestFoldCarriesPorts(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"routerlike-2048", topology.RouterLike(rand.New(rand.NewSource(1)), 2048)},
		{"geometric-256", topology.Geometric(rand.New(rand.NewSource(3)), 256, 8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, env := tc.g, static.NewEnv(tc.g, 1)
			base := mustBuild(t, env, vicinity.DefaultK(g.N()), true)
			lms := env.Landmarks
			var err error
			links := widthCrossers(t, g)
			// The node to cut off: the lowest-degree one of degree 2 or
			// more that is no landmark and no endpoint of those links.
			cut := graph.None
			for v := range graph.NodeID(g.N()) {
				if base.lmRow[v] < 0 && g.Degree(v) >= 2 && (cut == graph.None || g.Degree(v) < g.Degree(cut)) &&
					!slices.ContainsFunc(links, func(l graph.EdgeKey) bool { return l.U == v || l.V == v }) {
					cut = v
				}
			}
			for _, e := range g.Neighbors(cut) {
				links = append(links, (graph.EdgeKey{U: cut, V: e.To}).Norm())
			}
			cur := base
			for _, l := range links {
				if cur, err = cur.ApplyFailures([]graph.EdgeKey{l}); err != nil {
					t.Fatal(err)
				}
				checkCarriedFold(t, cur)
			}
			if cur.Reaches(lms[0], cut) {
				t.Fatalf("node %d still reached after all its links failed", cut)
			}
			// Fold while the links are down, so every restore below adds a
			// link the store's graph lacks.
			cur = cur.fold()
			for _, l := range links {
				if cur, err = cur.ApplyRecoveries([]graph.WeightedLink{{U: l.U, V: l.V, W: g.EdgeWeight(l.U, l.V)}}); err != nil {
					t.Fatal(err)
				}
				checkCarriedFold(t, cur)
			}
			d, rng := newChainDriver(cur), rand.New(rand.NewSource(5))
			d.baseG = g
			for step := 0; step < 12; step++ {
				if len(d.down) == 0 || rng.Intn(2) == 0 {
					d.failOne(t, rng, false)
				} else {
					d.recoverOne(t, rng)
				}
				checkCarriedFold(t, d.cur)
			}
			if !bytes.Equal(d.cur.fold().CanonicalBytes(), d.cur.CanonicalBytes()) {
				t.Fatal("the folded head's route state differs from the chain's")
			}
			checkCarriedFold(t, swappedHead(t, base))
		})
	}
}

// swappedHead returns a chain head over base whose store's graph gives a
// node the same degree but another neighbour list: the node's first link
// is down when the store folds, and its last fails once the first is back.
// Its node is the lowest-degree one of degree 3 or more for which neither
// of those two events folds the chain.
func swappedHead(t *testing.T, base *Snapshot) *Snapshot {
	t.Helper()
	g := base.Graph()
	var nodes []graph.NodeID
	for v := range graph.NodeID(g.N()) {
		if g.Degree(v) >= 3 {
			nodes = append(nodes, v)
		}
	}
	slices.SortStableFunc(nodes, func(a, b graph.NodeID) int { return g.Degree(a) - g.Degree(b) })
	for _, v := range nodes {
		in := (graph.EdgeKey{U: v, V: g.Neighbors(v)[0].To}).Norm()
		out := (graph.EdgeKey{U: v, V: g.Neighbors(v)[g.Degree(v)-1].To}).Norm()
		down, err := base.ApplyFailures([]graph.EdgeKey{in})
		if err != nil {
			t.Fatal(err)
		}
		back, err := down.fold().ApplyRecoveries([]graph.WeightedLink{{U: in.U, V: in.V, W: g.EdgeWeight(in.U, in.V)}})
		if err != nil {
			t.Fatal(err)
		}
		head, err := back.ApplyFailures([]graph.EdgeKey{out})
		if err != nil {
			t.Fatal(err)
		}
		if back.RepairStats().Folded || head.RepairStats().Folded {
			continue
		}
		if pg := head.cs.pg; pg.Degree(v) != head.Graph().Degree(v) {
			t.Fatalf("node %d: degree %d in the store's graph, %d in the head's", v, pg.Degree(v), head.Graph().Degree(v))
		}
		return head
	}
	t.Fatal("every swap folded the chain")
	return nil
}

// FuzzFoldCarriesPorts checks the carried fold against a full re-encode
// on small random graphs: a random spanning tree plus extra links, unit or
// integer weights, and a random sequence of link failures (which may cut
// nodes off), recoveries and explicit folds. Every step's head must fold
// to the rows encodeForestRow writes from the parents alone.
func FuzzFoldCarriesPorts(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(6), false, []byte{0, 2, 4, 1, 3, 255, 5})
	f.Add(int64(2), uint8(30), uint8(20), true, []byte{8, 10, 12, 14, 255, 1, 3, 5, 7})
	f.Add(int64(3), uint8(5), uint8(0), false, []byte{0, 2, 255, 1, 3})
	f.Fuzz(func(t *testing.T, seed int64, nn, extra uint8, weighted bool, ops []byte) {
		n := 2 + int(nn)%40
		if len(ops) > 32 {
			ops = ops[:32]
		}
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(n)
		weight := func() float64 {
			if weighted {
				return float64(1 + rng.Intn(4))
			}
			return 1
		}
		linked := make(map[graph.EdgeKey]bool)
		link := func(u, v graph.NodeID) {
			if key := (graph.EdgeKey{U: u, V: v}).Norm(); u != v && !linked[key] {
				linked[key] = true
				g.AddEdge(u, v, weight())
			}
		}
		for v := 1; v < n; v++ {
			link(graph.NodeID(v), graph.NodeID(rng.Intn(v)))
		}
		for i := 0; i < int(extra)%(2*n); i++ {
			link(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g.Finalize()
		lms := []graph.NodeID{0, graph.NodeID(n - 1)}
		cur, err := BuildCompact(g, min(n, 1+rng.Intn(8)), lms)
		if err != nil {
			t.Fatal(err)
		}
		var down []graph.EdgeKey
		for _, op := range ops {
			switch {
			case op == 255:
				cur = cur.fold()
				continue
			case op%2 == 0 && cur.Graph().M() > 0:
				edges := cur.Graph().EdgeList()
				l := edges[int(op/2)%len(edges)]
				if cur, err = cur.ApplyFailures([]graph.EdgeKey{l}); err != nil {
					t.Fatal(err)
				}
				down = append(down, l)
			case len(down) > 0:
				i := int(op/2) % len(down)
				l := down[i]
				down = slices.Delete(down, i, i+1)
				if cur, err = cur.ApplyRecoveries([]graph.WeightedLink{{U: l.U, V: l.V, W: g.EdgeWeight(l.U, l.V)}}); err != nil {
					t.Fatal(err)
				}
			default:
				continue
			}
			checkCarriedFold(t, cur)
		}
	})
}
