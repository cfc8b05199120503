package names

import "testing"

// FuzzCommonPrefixLen checks the prefix-match primitive the sloppy-group
// lookup leans on (§4.4) against its defining properties for arbitrary
// hash pairs: reflexivity, symmetry, the prefix-bits consistency both
// directions (equal top-k bits iff the common prefix covers k), and the
// guarantee that bit CPL+1 differs.
func FuzzCommonPrefixLen(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(0), ^uint64(0))
	f.Add(uint64(0x8000000000000000), uint64(0))
	f.Add(uint64(0xdeadbeefcafef00d), uint64(0xdeadbeefcafef00e))
	f.Fuzz(func(t *testing.T, ax, bx uint64) {
		a, b := Hash(ax), Hash(bx)
		p := CommonPrefixLen(a, b)
		if p < 0 || p > HashBits {
			t.Fatalf("CommonPrefixLen out of range: %d", p)
		}
		if a == b && p != HashBits {
			t.Fatalf("CPL(x,x) = %d, want %d", p, HashBits)
		}
		if got := CommonPrefixLen(b, a); got != p {
			t.Fatalf("asymmetric: CPL(a,b)=%d CPL(b,a)=%d", p, got)
		}
		for _, k := range []int{0, 1, p / 2, p, p + 1, HashBits} {
			if k < 0 || k > HashBits {
				continue
			}
			same := PrefixBits(a, k) == PrefixBits(b, k)
			if k <= p && !same {
				t.Fatalf("top %d bits differ though CPL=%d (a=%x b=%x)", k, p, ax, bx)
			}
			if k > p && same {
				t.Fatalf("top %d bits equal though CPL=%d (a=%x b=%x)", k, p, ax, bx)
			}
		}
	})
}

// FuzzRingDist checks the circular-distance primitive VRR forwards on:
// symmetry, the half-space bound, identity, and agreement with the
// clockwise distances it is the minimum of.
func FuzzRingDist(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1), ^uint64(0))
	f.Add(uint64(1)<<63, uint64(0))
	f.Fuzz(func(t *testing.T, ax, bx uint64) {
		a, b := Hash(ax), Hash(bx)
		d := RingDist(a, b)
		if d != RingDist(b, a) {
			t.Fatalf("asymmetric: %d vs %d", d, RingDist(b, a))
		}
		if a == b && d != 0 {
			t.Fatalf("RingDist(x,x) = %d", d)
		}
		if a != b && d == 0 {
			t.Fatalf("RingDist = 0 for distinct points %x %x", ax, bx)
		}
		if d > 1<<63 {
			t.Fatalf("RingDist %d exceeds half the ring", d)
		}
		cw, ccw := uint64(b-a), uint64(a-b) // clockwise from a, and from b
		if d != cw && d != ccw {
			t.Fatalf("RingDist %d is neither clockwise %d nor counter-clockwise %d", d, cw, ccw)
		}
		if d > cw || d > ccw {
			t.Fatalf("RingDist %d is not the minimum of %d and %d", d, cw, ccw)
		}
	})
}

// FuzzHashOf checks the name-hashing layer: determinism, and that the
// hash depends only on the name's bytes (two equal byte strings collide,
// which the protocol requires — names are the identity).
func FuzzHashOf(f *testing.F) {
	f.Add("", "")
	f.Add("node-a", "node-a")
	f.Add("node-a", "node-b")
	f.Add("scn-00ff", "\x00\xff")
	f.Fuzz(func(t *testing.T, sa, sb string) {
		a, b := Name(sa), Name(sb)
		if HashOf(a) != HashOf(a) {
			t.Fatal("HashOf not deterministic")
		}
		if sa == sb && HashOf(a) != HashOf(b) {
			t.Fatalf("equal names hash differently: %q", sa)
		}
		// Self-certifying names verify against exactly the key bytes they
		// were derived from.
		if !Verify(SelfCertifying([]byte(sa)), []byte(sa)) {
			t.Fatalf("self-certifying name fails to verify its own key: %q", sa)
		}
		if sa != sb && Verify(SelfCertifying([]byte(sa)), []byte(sb)) {
			t.Fatalf("self-certifying name verifies a different key: %q vs %q", sa, sb)
		}
	})
}
