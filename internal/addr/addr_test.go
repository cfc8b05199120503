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

func TestEncodeDecodeRoundTrip(t *testing.T) {
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
		buf, nbit := a.Encode(g)
		if nbit != a.Bits() {
			t.Fatalf("Encode bits %d != Make bits %d", nbit, a.Bits())
		}
		got, err := Decode(g, src, buf, nbit)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got) != len(path) {
			t.Fatalf("decoded path len %d want %d", len(got), len(path))
		}
		for i := range got {
			if got[i] != path[i] {
				t.Fatalf("decoded path differs at %d: %v vs %v", i, got, path)
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

func TestReverse(t *testing.T) {
	g := topology.Line(4)
	a := Make(g, []graph.NodeID{0, 1, 2, 3})
	r := a.Reverse()
	want := []graph.NodeID{3, 2, 1, 0}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("reverse %v want %v", r, want)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	g := topology.Star(5)
	// Claim a 10-node path on a 5-node star with a port stream of ones.
	buf := []byte{0xFF, 0xFF}
	if _, err := Decode(g, 0, buf, 16); err == nil {
		t.Error("expected error decoding garbage")
	}
}

// TestDecodeMalformedIsError pins Decode's error contract on routes that
// used to panic inside the bit reader: no bits, a hop count whose gamma
// code never ends, and a bit count the buffer does not hold.
func TestDecodeMalformedIsError(t *testing.T) {
	g := topology.Star(5)
	for _, tc := range []struct {
		name string
		buf  []byte
		nbit int
	}{
		{"empty", nil, 0},
		{"all zero", []byte{0, 0, 0}, 24},
		{"truncated hop count", []byte{0}, 8},
		{"hop count cut by nbit", []byte{0x01}, 7},
		{"zero run past 64 bits", make([]byte, 10), 80},
		{"nbit past buffer", []byte{0x80}, 9},
		{"negative nbit", []byte{0x80}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(g, 0, tc.buf, tc.nbit); err == nil {
				t.Fatal("want an error")
			}
		})
	}
}

func TestSizeModel(t *testing.T) {
	g := topology.Line(5)
	a := Make(g, []graph.NodeID{0, 1, 2})
	v4 := SizeModel{NameBytes: 4}
	v6 := SizeModel{NameBytes: 16}
	if v4.EntryBytes(a) != 8+a.Bytes() {
		t.Errorf("v4 entry bytes %v", v4.EntryBytes(a))
	}
	if v6.EntryBytes(a) != 32+a.Bytes() {
		t.Errorf("v6 entry bytes %v", v6.EntryBytes(a))
	}
	if v4.PlainEntryBytes() != 6 || v6.PlainEntryBytes() != 18 {
		t.Error("plain entry bytes wrong")
	}
}

// TestEncodingPinned pins Encode's bits for every node of one router-like
// map (nearest-of-64-landmarks routes): a SHA-256 over each address's bit
// length and bytes, written before the codec's word-at-a-time rewrite.
// Decode round-trips whatever Encode writes, so only a pin sees a codec
// change that moves bits consistently on both sides.
func TestEncodingPinned(t *testing.T) {
	const want = "04a4d5e84c7afc6d8fd1bdfbe4eb93f9b6fcd14a845ace9f019fd050ca057a60"
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
		buf, nbit := Make(g, s.PathTo(graph.NodeID(v))).Encode(g)
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(nbit)))
		h.Write(buf)
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
