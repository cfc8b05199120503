package disco

import (
	"math/rand"

	"disco/internal/graph"
	"disco/internal/names"
	"disco/internal/topology"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// builderFromGraph starts a Builder on a generator's topology, which is
// sealed; AddLink adds links on top of it.
func builderFromGraph(g *graph.Graph) *Builder {
	b := NewBuilder(g.N())
	b.base = g
	return b
}

// RandomGraph returns a Builder holding a connected G(n,m)-style uniform
// random topology with the given average degree and unit link latencies —
// the paper's G(n,m) evaluation topology.
func RandomGraph(n int, avgDeg float64, seed int64) *Builder {
	return builderFromGraph(topology.GnmAvgDeg(newRand(seed), n, avgDeg))
}

// GeometricGraph returns a Builder holding a connected geometric random
// topology: nodes in the unit square, links between nodes within range,
// link latency equal to Euclidean distance — the paper's latency-annotated
// evaluation topology.
func GeometricGraph(n int, avgDeg float64, seed int64) *Builder {
	return builderFromGraph(topology.Geometric(newRand(seed), n, avgDeg))
}

// InternetASLike returns a Builder holding a synthetic AS-level-style
// power-law topology (heavy-tailed hubs, unit latencies).
func InternetASLike(n int, seed int64) *Builder {
	return builderFromGraph(topology.ASLike(newRand(seed), n))
}

// InternetRouterLike returns a Builder holding a synthetic
// router-level-style topology (power-law core plus degree-1 stub fringe,
// unit latencies).
func InternetRouterLike(n int, seed int64) *Builder {
	return builderFromGraph(topology.RouterLike(newRand(seed), n))
}

// SelfCertifyingName derives a flat self-certifying name from a public
// key: the name is a hash of the key, so ownership is verifiable without
// any PKI (§2 of the paper).
func SelfCertifyingName(pubKey []byte) string {
	return string(names.SelfCertifying(pubKey))
}

// VerifyName checks a claimed public key against a self-certifying name.
func VerifyName(name string, pubKey []byte) bool {
	return names.Verify(names.Name(name), pubKey)
}
