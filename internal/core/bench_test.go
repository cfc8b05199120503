package core

import (
	"math/rand"
	"testing"

	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/snapshot"
	"disco/internal/static"
	"disco/internal/topology"
)

// BenchmarkRepairedRoutes prices churn-compact's probe like for like: one
// op is a Disco RepairedFirstRoute plus RepairedLaterRoute for one seeded
// pair, on a fork of that workload's topology (router-like n=2048, seed 1)
// over a compact snapshot and over its exact twin. The compact/exact ratio
// is what a compact read costs a route. exact and compact keep one fork
// over all 4,096 pairs; compact-cold re-forks every 150 pairs, as the
// churn-compact probe forks each event's chain head, so its Reader starts
// cold as often as there. fills/op is the windows the forks' Readers
// decoded per pair.
func BenchmarkRepairedRoutes(b *testing.B) {
	g := topology.RouterLike(rand.New(rand.NewSource(1)), 2048)
	env := static.NewEnv(g, 1)
	d := NewDisco(env, WithSeed(1))
	pairs := metrics.SamplePairs(rand.New(rand.NewSource(2)), g.N(), 4096)
	for _, regime := range []struct {
		name  string
		build func(*graph.Graph, int, []graph.NodeID) (*snapshot.Snapshot, error)
		every int // pairs a fork routes before the next fork; 0 = one fork
	}{{"exact", snapshot.Build, 0}, {"compact", snapshot.BuildCompact, 0}, {"compact-cold", snapshot.BuildCompact, 150}} {
		snap, err := regime.build(g, d.ND.K, env.Landmarks)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(regime.name, func(b *testing.B) {
			fork, fills := d.ForkRepaired(snap), 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if regime.every > 0 && i > 0 && i%regime.every == 0 {
					fills += fork.ND.rd.Fills()
					fork = d.ForkRepaired(snap)
				}
				p := pairs[i%len(pairs)]
				s, t := graph.NodeID(p.Src), graph.NodeID(p.Dst)
				_, ok := fork.RepairedFirstRoute(s, t)
				_, ok2 := fork.RepairedLaterRoute(s, t)
				if !ok || !ok2 {
					b.Fatalf("pair %d->%d undelivered", s, t)
				}
			}
			b.ReportMetric(float64(fills+fork.ND.rd.Fills())/float64(b.N), "fills/op")
		})
	}
}
