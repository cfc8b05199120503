package snapshot

import (
	"math/rand"
	"testing"

	"disco/internal/graph"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

// BenchmarkCompactReads prices the three reads a route makes of the store,
// compact against exact, on churn-compact's topology (router-like n=2048,
// seed 1): Vicinity(v) (a window decode in the compact regime),
// VicinityContains(v, w) (an in-place scan of the member-ID stream) and
// Parent(lm, v) (one forest field). Each op is one read at a seeded random
// node; ns/op is the like-for-like per-read cost of the two regimes.
func BenchmarkCompactReads(b *testing.B) {
	g := topology.RouterLike(rand.New(rand.NewSource(1)), 2048)
	env := static.NewEnv(g, 1)
	k := vicinity.DefaultK(g.N())
	rng := rand.New(rand.NewSource(2))
	const probes = 4096
	vs := make([]graph.NodeID, probes)
	ws := make([]graph.NodeID, probes)
	lms := make([]graph.NodeID, probes)
	for i := range vs {
		vs[i] = graph.NodeID(rng.Intn(g.N()))
		ws[i] = graph.NodeID(rng.Intn(g.N()))
		lms[i] = env.Landmarks[rng.Intn(len(env.Landmarks))]
	}
	benchRegimes(b, func(b *testing.B, compact bool) {
		s := mustBuild(b, env, k, compact)
		b.Run("Vicinity", func(b *testing.B) {
			b.ReportAllocs()
			size := 0
			for i := 0; i < b.N; i++ {
				size += s.Vicinity(vs[i%probes]).Size()
			}
			if size == 0 {
				b.Fatal("empty windows")
			}
		})
		b.Run("VicinityContains", func(b *testing.B) {
			b.ReportAllocs()
			hits := 0
			for i := 0; i < b.N; i++ {
				if s.VicinityContains(vs[i%probes], ws[i%probes]) {
					hits++
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		})
		b.Run("Parent", func(b *testing.B) {
			b.ReportAllocs()
			roots := 0
			for i := 0; i < b.N; i++ {
				if s.Parent(lms[i%probes], vs[i%probes]) == graph.None {
					roots++
				}
			}
			b.ReportMetric(float64(roots)/float64(b.N), "roots/op")
		})
	})
}
