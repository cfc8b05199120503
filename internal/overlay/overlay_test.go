package overlay

import (
	"math/rand"
	"testing"

	"disco/internal/estimate"
	"disco/internal/graph"
	"disco/internal/names"
	"disco/internal/sloppy"
)

func buildNet(t *testing.T, n, fingers int, seed int64) (*Net, []names.Hash, *sloppy.View) {
	t.Helper()
	gen := names.NewGenerator(seed)
	hashes := make([]names.Hash, n)
	for i := range hashes {
		hashes[i] = names.HashOf(gen.Name(i))
	}
	view := sloppy.BuildView(hashes, estimate.Exact(n))
	net := Build(hashes, view, fingers, rand.New(rand.NewSource(seed)))
	return net, hashes, view
}

func TestRingLinksPresent(t *testing.T) {
	net, hashes, _ := buildNet(t, 200, 1, 1)
	// Every node's out links include its ring successor and predecessor.
	for v := 0; v < 200; v++ {
		out := net.OutLinks(graph.NodeID(v))
		if len(out) < 2 {
			t.Fatalf("node %d has %d out links", v, len(out))
		}
	}
	_ = hashes
}

func TestAvgDegreeMatchesPaper(t *testing.T) {
	// §4.4: "an average of |N(v)| ≈ 4 or 8 overlay connections (for 1 or 3
	// fingers respectively) counting both outgoing and incoming".
	net1, _, _ := buildNet(t, 1024, 1, 2)
	net3, _, _ := buildNet(t, 1024, 3, 2)
	d1, d3 := net1.AvgDegree(), net3.AvgDegree()
	if d1 < 3 || d1 > 5 {
		t.Errorf("1-finger avg degree %v want ~4", d1)
	}
	if d3 < 6.5 || d3 > 9.5 {
		t.Errorf("3-finger avg degree %v want ~8", d3)
	}
}

func TestDisseminationCoversGroup(t *testing.T) {
	net, hashes, view := buildNet(t, 1024, 1, 3)
	k := view.KOf(0)
	for origin := 0; origin < 1024; origin += 97 {
		st := net.Disseminate(graph.NodeID(origin))
		// Count group members (excluding origin).
		want := 0
		for w := 0; w < 1024; w++ {
			if w != origin && sloppy.SameGroup(hashes[origin], hashes[w], k) {
				want++
			}
		}
		if st.Reached != want {
			t.Fatalf("origin %d reached %d of %d group members", origin, st.Reached, want)
		}
	}
}

func TestDisseminationTerminatesWithBoundedMessages(t *testing.T) {
	net, _, _ := buildNet(t, 512, 3, 4)
	for origin := 0; origin < 512; origin += 51 {
		st := net.Disseminate(graph.NodeID(origin))
		// No count-to-infinity: messages bounded by reach * max degree.
		maxDeg := 0
		for v := 0; v < 512; v++ {
			if d := net.Degree(graph.NodeID(v)); d > maxDeg {
				maxDeg = d
			}
		}
		if st.Messages > (st.Reached+1)*maxDeg {
			t.Fatalf("message count %d implausible for reach %d", st.Messages, st.Reached)
		}
	}
}

func TestFingersReduceTravelDistance(t *testing.T) {
	// The §5 finger experiment: 3 fingers must cut mean and max
	// announcement travel distance versus 1 finger, at some message cost.
	net1, _, _ := buildNet(t, 1024, 1, 5)
	net3, _, _ := buildNet(t, 1024, 3, 5)
	tot1, mean1 := net1.DisseminateAll()
	tot3, mean3 := net3.DisseminateAll()
	if mean3 >= mean1 {
		t.Errorf("3 fingers should reduce mean travel distance: %v vs %v", mean3, mean1)
	}
	if tot3.MaxHops >= tot1.MaxHops {
		t.Errorf("3 fingers should reduce max travel distance: %d vs %d", tot3.MaxHops, tot1.MaxHops)
	}
	if tot3.Messages <= tot1.Messages {
		t.Errorf("3 fingers should cost more messages: %d vs %d", tot3.Messages, tot1.Messages)
	}
	t.Logf("1 finger: mean=%.2f max=%d msgs=%d; 3 fingers: mean=%.2f max=%d msgs=%d",
		mean1, tot1.MaxHops, tot1.Messages, mean3, tot3.MaxHops, tot3.Messages)
}

func TestCoverageUnderEstimateError(t *testing.T) {
	// With ±40% estimate error, dissemination through mutual-agreement
	// links must still reach (at least) each origin's core group.
	n := 1024
	gen := names.NewGenerator(6)
	hashes := make([]names.Hash, n)
	for i := range hashes {
		hashes[i] = names.HashOf(gen.Name(i))
	}
	rng := rand.New(rand.NewSource(7))
	view := sloppy.BuildView(hashes, estimate.InjectError(rng, n, 0.4))
	net := Build(hashes, view, 1, rand.New(rand.NewSource(8)))
	for origin := 0; origin < n; origin += 119 {
		st := net.Disseminate(graph.NodeID(origin))
		core := 0 // |G'(origin)|: the nodes that mutually agree with origin
		for w := range graph.NodeID(n) {
			if view.Mutual(graph.NodeID(origin), w) {
				core++
			}
		}
		// st.Reached counts nodes that received the announcement; the
		// core group (minus origin) must all be among them. Since
		// Disseminate only reports counts, verify via the stronger
		// condition reached >= |core|-1.
		if st.Reached < core-1 {
			t.Fatalf("origin %d reached %d < core group %d", origin, st.Reached, core-1)
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	net1, _, _ := buildNet(t, 300, 2, 9)
	net2, _, _ := buildNet(t, 300, 2, 9)
	for v := 0; v < 300; v++ {
		a := net1.nbrs[v]
		b := net2.nbrs[v]
		if len(a) != len(b) {
			t.Fatal("overlay must be deterministic")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("overlay must be deterministic")
			}
		}
	}
}

func TestTinyNetwork(t *testing.T) {
	net, _, _ := buildNet(t, 3, 1, 10)
	st := net.Disseminate(0)
	if st.Reached != 2 {
		t.Errorf("3-node overlay should reach both others, got %d", st.Reached)
	}
}
