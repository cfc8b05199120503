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
// VicinityContains(v, w) (the pointed probe: a search of the block heads
// and a scan of one block) and Parent(lm, v) (one forest field), and the
// Reader's reads: a cold miss and a cold hit on an owner it does not hold,
// and a warm hit and a warm miss on one it does. Each op is one read;
// ns/op is the like-for-like per-read cost of the two regimes (an exact
// Reader passes every read through to the stored window), and fills/op
// counts the windows a Reader decoded.
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
		// Reads through a Reader. The cold reads visit owners in ID order,
		// so each owner's slot last held another owner: cold-miss asks
		// VicinityContains at a non-member, which the pointed probe answers
		// without a fill, and cold-hit VicinityFind at a member, which fills
		// the slot. hit and miss read 32 owners the Reader already holds,
		// at a member (VicinityFind) and at a non-member (VicinityContains).
		members, strangers := make([]graph.NodeID, g.N()), make([]graph.NodeID, g.N())
		for v := range members {
			win := s.Vicinity(graph.NodeID(v))
			members[v] = win.ID(rng.Intn(win.Size()))
			for strangers[v] = ws[v%probes]; win.Contains(strangers[v]); strangers[v] = (strangers[v] + 1) % graph.NodeID(g.N()) {
			}
		}
		b.Run("Reader/cold-miss", func(b *testing.B) {
			b.ReportAllocs()
			h, hits := s.Reader(), 0
			for i := 0; i < b.N; i++ {
				v := i % g.N()
				if h.VicinityContains(graph.NodeID(v), strangers[v]) {
					hits++
				}
			}
			if hits > 0 {
				b.Fatal("a stranger is a member")
			}
			b.ReportMetric(float64(h.Fills())/float64(b.N), "fills/op")
		})
		b.Run("Reader/cold-hit", func(b *testing.B) {
			b.ReportAllocs()
			h, sum := s.Reader(), 0
			for i := 0; i < b.N; i++ {
				v := i % g.N()
				_, j := h.VicinityFind(graph.NodeID(v), members[v])
				sum += j
			}
			sinkInt = sum
			b.ReportMetric(float64(h.Fills())/float64(b.N), "fills/op")
		})
		warm := func() Reader {
			h := s.Reader()
			for v, w := range members[:cacheSlots] {
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
