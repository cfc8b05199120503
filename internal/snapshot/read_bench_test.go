package snapshot

import (
	"math/rand"
	"testing"

	"disco/internal/graph"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

// BenchmarkCompactReads prices the reads a route makes of the store,
// compact against exact, on churn-compact's topology (router-like n=2048,
// seed 1): Vicinity(v) (a window decode in the compact regime),
// VicinityContains(v, w) (an in-place scan of the member-ID stream) and
// Parent(lm, v) (one forest field), and the Reader's cached reads: a cold
// slot fill, a warm hit and a warm miss. Each op is one read; ns/op is the
// like-for-like per-read cost of the two regimes (an exact Reader passes
// every read through to the stored window).
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
		rng := rand.New(rand.NewSource(3))
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
		// Reads through a Reader: fill reads owners in ID order, so each
		// lands in a slot last filled for another owner and decodes its
		// member IDs; hit and miss read 32 owners the Reader already holds
		// whole, at a member (VicinityFind) and at a non-member
		// (VicinityContains).
		b.Run("Reader/fill", func(b *testing.B) {
			b.ReportAllocs()
			h, hits := s.Reader(), 0
			for i := 0; i < b.N; i++ {
				if h.VicinityContains(graph.NodeID(i%g.N()), ws[i%probes]) {
					hits++
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
		})
		var members, strangers [cacheSlots]graph.NodeID
		for v := range members {
			win := s.Vicinity(graph.NodeID(v))
			members[v] = win.ID(rng.Intn(win.Size()))
			for strangers[v] = ws[v]; win.Contains(strangers[v]); strangers[v]++ {
			}
		}
		warm := func() Reader {
			h := s.Reader()
			for v, w := range members {
				h.VicinityFind(graph.NodeID(v), w)
			}
			return h
		}
		b.Run("Reader/hit", func(b *testing.B) {
			b.ReportAllocs()
			h, sum := warm(), 0
			for i := 0; i < b.N; i++ {
				v := i % cacheSlots
				_, j := h.VicinityFind(graph.NodeID(v), members[v])
				sum += j
			}
			sinkInt = sum
		})
		b.Run("Reader/miss", func(b *testing.B) {
			b.ReportAllocs()
			h, hits := warm(), 0
			for i := 0; i < b.N; i++ {
				v := i % cacheSlots
				if h.VicinityContains(graph.NodeID(v), strangers[v]) {
					hits++
				}
			}
			if hits > 0 {
				b.Fatal("a stranger is a member")
			}
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

// sinkInt keeps benchmarked reads live.
var sinkInt int
