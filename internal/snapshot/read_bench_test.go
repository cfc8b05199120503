package snapshot

import (
	"math/rand"
	"testing"

	"disco/internal/graph"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

// BenchmarkCompactReads prices the reads of the store, compact against
// exact, on churn-compact's topology (router-like n=2048, seed 1): Decode
// (V(v) whole, as a fold that changes the distance form and the oracle
// read it: in the compact regime a decode into a fresh window), Members
// (V(v)'s IDs appended to one warm buffer, as Disco's group-member search
// reads them), VicinityContains(v, w) (the pointed probe: a select of w's
// bucket and a compare of its low fields), AppendVicinityPath(dst, v, w)
// at a member (the probe, then one parent field and one ID select a hop,
// in place) and Parent (parentAt: one forest field). Each op is one read;
// ns/op is the like-for-like per-read cost of the two regimes.
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
		b.Run("Decode", func(b *testing.B) {
			b.ReportAllocs()
			size := 0
			for i := 0; i < b.N; i++ {
				size += s.Vicinity(vs[i%probes]).Size()
			}
			if size == 0 {
				b.Fatal("empty windows")
			}
		})
		b.Run("Members", func(b *testing.B) {
			b.ReportAllocs()
			var ids []graph.NodeID
			size := 0
			for i := 0; i < b.N; i++ {
				ids = s.AppendMembers(ids[:0], vs[i%probes])
				size += len(ids)
			}
			b.ReportMetric(float64(size)/float64(b.N), "members/op")
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
		// The path read of a lookup that hits: a member of V(v) drawn per
		// owner, read in place on the compact store.
		members := make([]graph.NodeID, g.N())
		for v := range members {
			win := s.Vicinity(graph.NodeID(v))
			members[v] = win.ID(rng.Intn(win.Size()))
		}
		b.Run("AppendVicinityPath", func(b *testing.B) {
			b.ReportAllocs()
			buf, nodes := make([]graph.NodeID, 0, g.N()), 0
			for i := 0; i < b.N; i++ {
				v := vs[i%probes]
				path, ok := s.AppendVicinityPath(buf, v, members[v])
				if !ok {
					b.Fatalf("member %d missed in V(%d)", members[v], v)
				}
				nodes += len(path)
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
		})
		b.Run("Parent", func(b *testing.B) {
			b.ReportAllocs()
			roots := 0
			for i := 0; i < b.N; i++ {
				if s.parentAt(s.row(lms[i%probes]), vs[i%probes]) == graph.None {
					roots++
				}
			}
			b.ReportMetric(float64(roots)/float64(b.N), "roots/op")
		})
	})
}
