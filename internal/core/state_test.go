package core

import (
	"math/rand"
	"testing"

	"disco/internal/addr"
	"disco/internal/graph"
	"disco/internal/static"
	"disco/internal/topology"
)

func TestStateBytesAccounting(t *testing.T) {
	b := static.StateBreakdown{
		LandmarkRoutes: 10,
		VicinityRoutes: 20,
		LabelMappings:  5,
		Resolution:     3,
		GroupAddrs:     7,
		OverlayLinks:   4,
	}
	if b.Total() != 49 {
		t.Fatalf("total %d want 49", b.Total())
	}
	m := addr.SizeModel{NameBytes: 4}
	// plain = 6B; withAddr = 8 + avgAddr; labels 2B each; overlay plain.
	avgAddr := 3.0
	want := float64(10+20)*6 + 5*2 + float64(3+7)*(8+3) + 4*6
	if got := b.Bytes(m, avgAddr); got != want {
		t.Fatalf("bytes %v want %v", got, want)
	}
	// IPv6 names strictly cost more.
	if b.Bytes(addr.SizeModel{NameBytes: 16}, avgAddr) <= want {
		t.Fatal("IPv6 accounting must exceed IPv4")
	}
}

func TestGroupSizesMatchBruteForce(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(71)), 300, 1200)
	env := static.NewEnv(g, 71)
	d := NewDisco(env)
	fast := d.groupSizes()
	for v := 0; v < 300; v += 23 {
		if got, want := fast[v], d.GroupSize(graph.NodeID(v)); got != want {
			t.Fatalf("groupSizes[%d]=%d but GroupSize=%d", v, got, want)
		}
	}
}

func TestStateVectorsUnderEstimateError(t *testing.T) {
	// With per-node estimates, group sizes differ by node; totals must
	// stay consistent with the per-node breakdowns.
	g := topology.Gnm(rand.New(rand.NewSource(73)), 400, 1600)
	est := make([]float64, 400)
	rng := rand.New(rand.NewSource(74))
	for i := range est {
		est[i] = 400 * (1 + (rng.Float64()*2-1)*0.4)
	}
	env := static.NewEnv(g, 73, static.WithNEst(est))
	d := NewDisco(env)
	_, dE, _, dB := d.StateVectors()
	for v := 0; v < 400; v++ {
		if dB[v].Total() != dE[v] {
			t.Fatal("breakdown mismatch under estimate error")
		}
		if dB[v].GroupAddrs != d.GroupSize(graph.NodeID(v)) {
			t.Fatalf("group size mismatch at %d under estimate error", v)
		}
	}
}

// GroupSize returns |G(v)| as v sees it (the number of addresses v stores).
func (d *Disco) GroupSize(v graph.NodeID) int {
	n := d.Env().N()
	count := 0
	for w := 0; w < n; w++ {
		if graph.NodeID(w) != v && d.View.InGroup(v, graph.NodeID(w)) {
			count++
		}
	}
	return count
}
