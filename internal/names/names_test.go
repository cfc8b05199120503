package names

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	a := HashOf("alpha")
	b := HashOf("alpha")
	if a != b {
		t.Fatal("hash must be deterministic")
	}
	if HashOf("alpha") == HashOf("beta") {
		t.Fatal("distinct names should hash differently")
	}
}

func TestCommonPrefixLen(t *testing.T) {
	cases := []struct {
		a, b Hash
		want int
	}{
		{0, 0, 64},
		{0, 1, 63},
		{0, 1 << 63, 0},
		{0xFF00000000000000, 0xFF80000000000000, 8},
	}
	for _, c := range cases {
		if got := CommonPrefixLen(c.a, c.b); got != c.want {
			t.Errorf("CommonPrefixLen(%x,%x)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCommonPrefixProperties(t *testing.T) {
	f := func(a, b uint64) bool {
		l := CommonPrefixLen(Hash(a), Hash(b))
		if l < 0 || l > 64 {
			return false
		}
		// Symmetry.
		if l != CommonPrefixLen(Hash(b), Hash(a)) {
			return false
		}
		// The claimed prefix actually matches.
		if l > 0 && PrefixBits(Hash(a), l) != PrefixBits(Hash(b), l) {
			return false
		}
		// And the next bit differs (unless full match).
		if l < 64 && PrefixBits(Hash(a), l+1) == PrefixBits(Hash(b), l+1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixBits(t *testing.T) {
	h := Hash(0xABCD000000000000)
	if got := PrefixBits(h, 16); got != 0xABCD {
		t.Errorf("PrefixBits=%x want abcd", got)
	}
	if got := PrefixBits(h, 0); got != 0 {
		t.Errorf("PrefixBits(0)=%x want 0", got)
	}
}

func TestRingDistProperties(t *testing.T) {
	f := func(a, b uint64) bool {
		d := RingDist(Hash(a), Hash(b))
		// Symmetric, zero iff equal, at most half the ring.
		if d != RingDist(Hash(b), Hash(a)) {
			return false
		}
		if (d == 0) != (a == b) {
			return false
		}
		return d <= 1<<63
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeneratorDistinctDeterministic(t *testing.T) {
	g := NewGenerator(99)
	ns := g.Names(1000)
	seen := map[Name]bool{}
	for _, n := range ns {
		if seen[n] {
			t.Fatalf("duplicate name %s", n)
		}
		seen[n] = true
	}
	g2 := NewGenerator(99)
	if g2.Name(123) != ns[123] {
		t.Fatal("generator must be deterministic")
	}
	g3 := NewGenerator(100)
	if g3.Name(123) == ns[123] {
		t.Fatal("different seeds must give different names")
	}
}

func TestHashUniformity(t *testing.T) {
	// Crude uniformity check: bucket 4096 name hashes into 16 bins; no bin
	// should be wildly off 256.
	g := NewGenerator(7)
	bins := make([]int, 16)
	for _, n := range g.Names(4096) {
		bins[PrefixBits(HashOf(n), 4)]++
	}
	for i, c := range bins {
		if c < 128 || c > 384 {
			t.Errorf("bin %d has %d of 4096 (expected ~256)", i, c)
		}
	}
}

func TestSelfCertifying(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	key, other := make([]byte, 32), make([]byte, 32)
	rng.Read(key)
	rng.Read(other)
	n := SelfCertifying(key)
	if !Verify(n, key) {
		t.Fatal("self-certifying name must verify against its key")
	}
	if Verify(n, other) {
		t.Fatal("wrong key must not verify")
	}
}
