package addr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"disco/internal/graph"
	"disco/internal/topology"
)

func TestMakeSimplePath(t *testing.T) {
	g := topology.Line(5)
	a := Make(g, []graph.NodeID{0, 1, 2, 3})
	if a.Landmark != 0 || a.Dest != 3 {
		t.Fatalf("endpoints wrong: %+v", a)
	}
	if a.Hops() != 3 {
		t.Errorf("hops %d want 3", a.Hops())
	}
	if a.Bits() <= 0 {
		t.Error("encoded size must be positive")
	}
}

func TestSelfAddress(t *testing.T) {
	g := topology.Line(3)
	a := Make(g, []graph.NodeID{1})
	if a.Landmark != 1 || a.Dest != 1 || a.Hops() != 0 {
		t.Fatalf("self address wrong: %+v", a)
	}
	// Encoded size: just the gamma-coded path length 1 = 1 bit.
	if a.Bits() != 1 {
		t.Errorf("self address bits %d want 1", a.Bits())
	}
}

// TestMakePortsRetracePath: an address's ports, read as indices into each
// hop's sorted neighbour list, re-walk its path from the landmark.
func TestMakePortsRetracePath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := topology.Gnm(rng, 200, 800)
	s := graph.NewSSSP(g)
	for trial := 0; trial < 50; trial++ {
		src := graph.NodeID(rng.Intn(g.N()))
		dst := graph.NodeID(rng.Intn(g.N()))
		s.Run(src)
		path := s.PathTo(dst)
		if path == nil {
			continue
		}
		a := Make(g, path)
		if len(a.Ports) != len(path)-1 {
			t.Fatalf("%d ports for a %d-node path", len(a.Ports), len(path))
		}
		for i, p := range a.Ports {
			if next := g.Neighbors(path[i])[p].To; next != path[i+1] {
				t.Fatalf("port %d at hop %d leads to %d, want %d", p, i, next, path[i+1])
			}
		}
	}
}

func TestDegreeOneCostsZeroBits(t *testing.T) {
	// On a line, interior nodes have degree 2 (1 bit/hop); endpoints
	// degree 1 (0 bits). Path 0->1->2: hop at 0 (deg 1, 0 bits), hop at 1
	// (deg 2, 1 bit); gamma(3) = 3 bits. Total 4.
	g := topology.Line(3)
	a := Make(g, []graph.NodeID{0, 1, 2})
	if a.Bits() != 4 {
		t.Errorf("bits %d want 4", a.Bits())
	}
}

func TestRingAddressGrowth(t *testing.T) {
	// On a ring, explicit routes can be long (§4.2 worst case): an
	// address across half the ring must cost ~hops bits.
	g := topology.Ring(64)
	s := graph.NewSSSP(g)
	s.Run(0)
	path := s.PathTo(32)
	a := Make(g, path)
	if a.Hops() != 32 {
		t.Fatalf("hops %d want 32", a.Hops())
	}
	if a.Bits() < 32 {
		t.Errorf("ring address should cost at least 1 bit/hop, got %d bits", a.Bits())
	}
}

func TestSizeModel(t *testing.T) {
	v4 := SizeModel{NameBytes: 4}
	v6 := SizeModel{NameBytes: 16}
	if v4.PlainEntryBytes() != 6 || v6.PlainEntryBytes() != 18 {
		t.Error("plain entry bytes wrong")
	}
}

// TestEncodingPinned pins Make's encoding for every node of one
// router-like map (nearest-of-64-landmarks routes): a SHA-256 over each
// address's bit length and ports.
func TestEncodingPinned(t *testing.T) {
	const want = "8b820ddf5200b45a5516ead22c46a598ac9ed6eb4e2142e46941e9592b92feb7"
	rng := rand.New(rand.NewSource(1))
	g := topology.RouterLike(rng, 2048)
	lms := make([]graph.NodeID, 64)
	for i, v := range rng.Perm(g.N())[:len(lms)] {
		lms[i] = graph.NodeID(v)
	}
	s := graph.NewSSSP(g)
	s.RunMulti(lms)
	h := sha256.New()
	for v := 0; v < g.N(); v++ {
		a := Make(g, s.PathTo(graph.NodeID(v)))
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(a.Bits())))
		for _, p := range a.Ports {
			h.Write(binary.LittleEndian.AppendUint16(nil, p))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("address encoding digest %s, want %s", got, want)
	}
}

func TestAddressSizeOnInternetLikeMap(t *testing.T) {
	// The §4.2 measurement: explicit routes on a router-level map are a
	// few bytes on average. On our synthetic 4000-node router-like map
	// with ~130 landmarks the mean must stay well under 8 bytes.
	rng := rand.New(rand.NewSource(9))
	g := topology.RouterLike(rng, 4000)
	// Pick random landmarks (~sqrt(n log n)).
	perm := rng.Perm(g.N())
	lms := make([]graph.NodeID, 130)
	for i := range lms {
		lms[i] = graph.NodeID(perm[i])
	}
	s := graph.NewSSSP(g)
	s.RunMulti(lms)
	total, count, max := 0.0, 0, 0.0
	for v := 0; v < g.N(); v++ {
		path := s.PathTo(graph.NodeID(v))
		if path == nil {
			t.Fatal("disconnected?")
		}
		a := Make(g, path)
		b := float64(a.Bits()) / 8
		total += b
		count++
		if b > max {
			max = b
		}
	}
	mean := total / float64(count)
	if mean > 8 {
		t.Errorf("mean explicit-route size %.2f bytes implausibly large", mean)
	}
	if max > 40 {
		t.Errorf("max explicit-route size %.2f bytes implausibly large", max)
	}
	t.Logf("address sizes on router-like map: mean=%.2fB max=%.2fB", mean, max)
}
