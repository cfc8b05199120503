package snapshot

import (
	"math/rand"
	"slices"
	"testing"

	"disco/internal/graph"
)

// rowOps feeds a forest chain its draws: the next byte, 0 once they run
// out.
type rowOps struct{ b []byte }

func (o *rowOps) next() int {
	if len(o.b) == 0 {
		return 0
	}
	x := o.b[0]
	o.b = o.b[1:]
	return int(x)
}

// forestLandmarks returns up to four distinct landmarks spread over n nodes.
func forestLandmarks(n int) []graph.NodeID {
	lms := []graph.NodeID{0, graph.NodeID(n / 3), graph.NodeID(2 * n / 3), graph.NodeID(n - 1)}
	return slices.Compact(lms)
}

// checkForestChain drives a chain of events over g in both regimes, an
// event per draw of ops until they run out, and checks every forest row
// after every event (checkForestStep). An event fails or restores one to
// three links; failures may disconnect the graph.
func checkForestChain(t testing.TB, g *graph.Graph, k int, ops []byte) {
	t.Helper()
	lms := forestLandmarks(g.N())
	for _, build := range []func(*graph.Graph, int, []graph.NodeID) (*Snapshot, error){Build, BuildCompact} {
		cur, err := build(g, k, lms)
		if err != nil {
			t.Fatal(err)
		}
		o := &rowOps{ops}
		var down []graph.WeightedLink
		for step := 0; len(o.b) > 0; step++ {
			b := o.next()
			count := 1 + (b>>1)%3
			prev := cur
			edges := cur.Graph().EdgeList()
			restore := len(edges) == 0 || b&1 == 1 && len(down) > 0
			if restore {
				var links []graph.WeightedLink
				for range min(count, len(down)) {
					i := o.next() % len(down)
					links = append(links, down[i])
					down = slices.Delete(down, i, i+1)
				}
				cur, err = cur.ApplyRecoveries(links)
			} else {
				var fails []graph.EdgeKey
				for range min(count, len(edges)) {
					i := o.next() % len(edges)
					l := edges[i]
					fails = append(fails, l)
					down = append(down, graph.WeightedLink{U: l.U, V: l.V, W: prev.Graph().EdgeWeight(l.U, l.V)})
					edges = slices.Delete(edges, i, i+1)
				}
				cur, err = cur.ApplyFailures(fails)
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			checkForestStep(t, step, prev, cur, restore)
		}
	}
}

// checkForestStep requires every forest row of cur, one event past prev,
// to hold SSSP.Run's parents on cur's graph, disconnected or not, and
// RowsTouched to list exactly the rows that differ from prev's. A failure
// re-settles every row it touches; a recovery re-settles the rows in which
// some distance moved and patches the rest it touches.
func checkForestStep(t testing.TB, step int, prev, cur *Snapshot, recovery bool) {
	t.Helper()
	st := cur.RepairStats()
	g := cur.Graph()
	was, now := graph.NewSSSP(prev.Graph()), graph.NewSSSP(g)
	moved := 0
	for row, lm := range cur.landmarks {
		now.Run(lm)
		got := cur.forestRow(row)
		for v := range graph.NodeID(g.N()) {
			if got[v] != now.Parent(v) {
				t.Fatalf("step %d (compact=%v): row %d holds parent %d of node %d, a full run %d", step, cur.Compact(), row, got[v], v, now.Parent(v))
			}
		}
		_, listed := slices.BinarySearch(st.RowsTouched, row)
		if same := slices.Equal(prev.forestRow(row), got); listed == same {
			t.Fatalf("step %d (compact=%v): row %d listed %v but changed %v", step, cur.Compact(), row, listed, !same)
		}
		was.Run(lm)
		for v := range graph.NodeID(g.N()) {
			if was.Dist(v) != now.Dist(v) {
				moved++
				break
			}
		}
	}
	if st.RowsRebuilt+st.RowsPatched != len(st.RowsTouched) {
		t.Fatalf("step %d: %d rows re-settled and %d patched, %d touched", step, st.RowsRebuilt, st.RowsPatched, len(st.RowsTouched))
	}
	if recovery && st.RowsRebuilt != moved {
		t.Fatalf("step %d: a recovery re-settled %d rows, %d had a distance move", step, st.RowsRebuilt, moved)
	}
	if !recovery && st.RowsPatched != 0 {
		t.Fatalf("step %d: a failure patched %d rows", step, st.RowsPatched)
	}
}

// TestForestRowsMatchRun checks forest-row repair where no rebuild can:
// after every event of random chains over unit, integer and float weights,
// including those that cut nodes off and those that reconnect them, every
// row equals a full SSSP run's parents and RowsTouched is exact.
func TestForestRowsMatchRun(t *testing.T) {
	for seed := range int64(150) {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, seed)
		ops := make([]byte, 120)
		rng.Read(ops)
		checkForestChain(t, g, min(g.N(), 2+rng.Intn(6)), ops)
	}
}

// FuzzForestRowRepair decodes a graph and an event chain from its input
// and checks every forest row after every event: n = 2 + nn%40 nodes, a
// random spanning tree plus extra links (a pair drawn twice is linked
// once), unit, integer or float weights by kind%3.
func FuzzForestRowRepair(f *testing.F) {
	f.Add(uint8(10), uint8(0), []byte{0, 1, 0, 2, 1, 3, 6, 4, 0, 2, 5, 1, 1, 0, 3, 2, 1, 1, 1, 0, 4})
	f.Add(uint8(20), uint8(1), []byte{2, 0, 1, 1, 3, 0, 2, 5, 7, 9, 11, 30, 3, 4, 5, 6, 0, 9, 1, 1, 4, 2, 3, 1, 0})
	f.Add(uint8(16), uint8(2), []byte{10, 200, 30, 90, 4, 150, 60, 1, 2, 8, 5, 6, 0, 3, 4, 1, 2, 3, 5, 1, 0, 1})
	// Integer weights: a three-link failure cuts the graph into four
	// components, and the next event, a three-link restore, joins them.
	f.Add(uint8(10), uint8(1), []byte{0, 0, 1, 1, 2, 2, 3, 0, 0, 1, 5, 2, 6, 0, 7, 1, 8, 2, 4, 0, 10, 1, 2, 9, 3, 0, 11, 8, 1, 3, 2, 3, 0, 1, 0, 4, 1, 2, 0, 5, 0, 0, 0, 1, 0})
	// Float weights on a tree: every failure cuts nodes off, and restores
	// reconnect them one component at a time.
	f.Add(uint8(7), uint8(2), []byte{0, 40, 0, 200, 1, 90, 2, 10, 3, 255, 3, 128, 6, 60, 1, 2, 0, 2, 0, 7, 2, 0, 0, 1, 0, 3, 0, 0, 4, 1, 1, 1, 5, 0, 0, 0})
	f.Fuzz(func(t *testing.T, nn, kind uint8, data []byte) {
		if len(data) > 96 {
			data = data[:96]
		}
		o := &rowOps{data}
		n := 2 + int(nn)%40
		weight := func() float64 {
			switch kind % 3 {
			case 1:
				return float64(1 + o.next()%3)
			case 2:
				return 0.1 + float64(o.next())/256
			}
			return 1
		}
		g := graph.New(n)
		linked := make(map[graph.EdgeKey]bool)
		link := func(u, v graph.NodeID) {
			if key := (graph.EdgeKey{U: u, V: v}).Norm(); u != v && !linked[key] {
				linked[key] = true
				g.AddEdge(u, v, weight())
			}
		}
		for v := 1; v < n; v++ {
			link(graph.NodeID(v), graph.NodeID(o.next()%v))
		}
		for range o.next() % (2 * n) {
			link(graph.NodeID(o.next()%n), graph.NodeID(o.next()%n))
		}
		g.Finalize()
		checkForestChain(t, g, min(n, 1+o.next()%8), o.b)
	})
}
