package forward_test

import (
	"math/rand"
	"testing"

	"disco/internal/forward"
	"disco/internal/graph"
)

// BenchmarkForwardThroughput measures single-core route queries per
// second on the two query planes over the same n=1024 snapshot: the
// protocol fork walking the snapshot (PR 6's serve plane) versus the
// forwarding tables. The routes/sec metric is what the README
// and ROADMAP quote; the tables sub-benchmark must also report 0
// allocs/op (the fast path's zero-allocation contract).
func BenchmarkForwardThroughput(b *testing.B) {
	const (
		n    = 1024
		seed = 1
	)
	env, base, nd := buildEnv(b, n, seed, false)
	pairs := samplePairs(rand.New(rand.NewSource(seed)), n, 4096)

	b.Run("fork-and-walk", func(b *testing.B) {
		r := nd.ForkRepaired(base)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr := pairs[i%len(pairs)]
			if i%2 == 0 {
				r.RepairedFirstRoute(pr[0], pr[1])
			} else {
				r.RepairedLaterRoute(pr[0], pr[1])
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "routes/s")
	})

	b.Run("tables", func(b *testing.B) {
		tbls := forward.Compile(base, env.Landmarks, env.LMOf)
		tbls.Precompile()
		r := tbls.NewRouter()
		buf := make([]graph.NodeID, 0, 256)
		for _, pr := range pairs { // steady-state the scratch buffers
			buf, _ = r.AppendRoute(buf[:0], pr[0], pr[1], true)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pr := pairs[i%len(pairs)]
			buf, _ = r.AppendRoute(buf[:0], pr[0], pr[1], i%2 == 1)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "routes/s")
	})
}

// BenchmarkPrecompile prices the eager install of every shard — the
// forward.precompile_s term of serve-tables' set-up — on that workload's
// topology (G(n,m), average degree 8, n=4096) in both storage regimes: the
// exact one installs the windows it stores, the compact one decodes each
// window and row first.
func BenchmarkPrecompile(b *testing.B) {
	for _, regime := range []struct {
		name    string
		compact bool
	}{{"exact", false}, {"compact", true}} {
		env, base, _ := buildEnv(b, 4096, 1, regime.compact)
		b.Run(regime.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				forward.Compile(base, env.Landmarks, env.LMOf).Precompile()
			}
		})
	}
}
