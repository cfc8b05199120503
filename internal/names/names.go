// Package names implements the flat, location-independent name layer of the
// paper (§2, §4.1): a name is an arbitrary bit string — a DNS name, a MAC
// address, or a secure self-certifying identifier. The routing protocol
// never interprets names except through the well-known hash function h(v)
// (§4.4), implemented here as SHA-256 truncated to 64 bits, which maps names
// to roughly uniform points on a circular hash space.
package names

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Name is a flat, location-independent node name: an arbitrary string
// chosen by the application layer, never by the routing protocol.
type Name string

// HashBits is the width of the hash space in bits.
const HashBits = 64

// Hash is a point in the circular hash space [0, 2^64).
type Hash uint64

// HashOf returns h(v): the first 8 bytes (big-endian) of SHA-256 of the
// name. The paper's "well-known hash function h(v) (e.g., SHA-2) which maps
// the node name to a roughly uniformly-distributed string of Θ(log n) bits"
// (§4.4).
func HashOf(n Name) Hash {
	sum := sha256.Sum256([]byte(n))
	return Hash(binary.BigEndian.Uint64(sum[:8]))
}

// CommonPrefixLen returns the number of leading bits a and b share — the
// prefix-match length used to locate a sloppy-group member in a vicinity
// (§4.4 "finds the node w ∈ V(s) which has the longest prefix match between
// h(w) and h(t)").
func CommonPrefixLen(a, b Hash) int {
	return bits.LeadingZeros64(uint64(a ^ b))
}

// PrefixBits returns the top k bits of h as a group identifier (k <= 64).
func PrefixBits(h Hash, k int) uint64 {
	if k <= 0 {
		return 0
	}
	return uint64(h) >> (HashBits - uint(k))
}

// RingDist returns the circular distance between a and b: the minimum of
// the clockwise and counter-clockwise distances.
func RingDist(a, b Hash) uint64 {
	d := uint64(a - b)
	if r := uint64(b - a); r < d {
		return r
	}
	return d
}

// Generator deterministically produces distinct flat names. Names carry no
// structure the protocol could exploit — the index is scrambled through the
// seed so that name order is unrelated to topology order.
type Generator struct {
	seed int64
}

// NewGenerator returns a name generator for the given seed.
func NewGenerator(seed int64) *Generator { return &Generator{seed: seed} }

// Name returns the flat name of node index i.
func (g *Generator) Name(i int) Name {
	mix := uint64(g.seed) ^ uint64(i)*0x9e3779b97f4a7c15
	return Name(fmt.Sprintf("node-%016x-%06d", mix, i))
}

// Names returns names for indices 0..n-1.
func (g *Generator) Names(n int) []Name {
	out := make([]Name, n)
	for i := range out {
		out[i] = g.Name(i)
	}
	return out
}

// SelfCertifying returns a self-certifying name: the hex hash of the given
// public-key bytes (§2: names "can also be self-certifying, where the name
// is a public key or a hash of a public key"). Verify checks a claimed
// key against such a name.
func SelfCertifying(pubKey []byte) Name {
	sum := sha256.Sum256(pubKey)
	return Name(fmt.Sprintf("scn-%x", sum[:20]))
}

// Verify reports whether pubKey hashes to the self-certifying name n.
func Verify(n Name, pubKey []byte) bool {
	return SelfCertifying(pubKey) == n
}
