package snapshot

import (
	"math/rand"
	"testing"
	"time"

	"disco/internal/graph"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

// BenchmarkBuild prices a from-scratch build as its two sweeps, the split
// bench/'s single snapshot.build_s does not have: vic-ms/op is the
// vicinity sweep (n truncated searches, each ball filled into its window
// and, in the compact regime, encoded), forest-ms/op the landmark-forest
// sweep (graph.ParentRows, plus the row encoder in the compact regime).
// The two topologies are bench/'s: router-like n=8192 (fig-stretch; churn-compact
// runs it at 2048) and G(n,m) of average degree 8 at n=4096 (serve-*).
func BenchmarkBuild(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"routerlike-8192", topology.RouterLike(rand.New(rand.NewSource(1)), 8192)},
		{"gnm-4096", topology.GnmAvgDeg(rand.New(rand.NewSource(1)), 4096, 8)},
	} {
		env := static.NewEnv(tc.g, 1)
		n := tc.g.N()
		k := vicinity.DefaultK(n)
		b.Run(tc.name, func(b *testing.B) {
			benchRegimes(b, func(b *testing.B, compact bool) {
				var vic, forest time.Duration
				for i := 0; i < b.N; i++ {
					s := &Snapshot{g: tc.g, k: k, compact: compact, landmarks: env.Landmarks}
					st := &exactStore{n: n}
					vicSweep := func() error { return s.buildExactVicinities(st) }
					forestSweep := func() error { return s.buildExactForest(st) }
					if compact {
						cs := newCompactStore(tc.g, k)
						vicSweep = func() error { return s.buildCompactVicinities(cs) }
						forestSweep = func() error { return s.buildCompactForest(cs) }
					}
					t0 := time.Now()
					errVic := vicSweep()
					t1 := time.Now()
					errForest := forestSweep()
					vic, forest = vic+t1.Sub(t0), forest+time.Since(t1)
					if errVic != nil || errForest != nil {
						b.Fatal(errVic, errForest)
					}
				}
				b.ReportMetric(float64(vic.Milliseconds())/float64(b.N), "vic-ms/op")
				b.ReportMetric(float64(forest.Milliseconds())/float64(b.N), "forest-ms/op")
			})
		})
	}
}
