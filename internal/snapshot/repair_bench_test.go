package snapshot

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"disco/internal/graph"
	"disco/internal/vicinity"
)

// benchRegimes runs fn once per storage regime under a b.Run group.
func benchRegimes(b *testing.B, fn func(b *testing.B, compact bool)) {
	for _, regime := range []struct {
		name    string
		compact bool
	}{{"exact", false}, {"compact", true}} {
		b.Run(regime.name, func(b *testing.B) { fn(b, regime.compact) })
	}
}

// drawFailable returns count distinct non-bridge links of s's topology,
// deterministically — each one can fail alone without disconnecting, so a
// benchmark can fail any one of them per iteration against the same base.
func drawFailable(b *testing.B, s *Snapshot, count int, seed int64) []graph.EdgeKey {
	b.Helper()
	g := s.Graph()
	bridges := g.Bridges()
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[graph.EdgeKey]bool)
	var keys []graph.EdgeKey
	for try := 0; len(keys) < count && try < 100000; try++ {
		u := graph.NodeID(rng.Intn(g.N()))
		es := g.Neighbors(u)
		if len(es) == 0 {
			continue
		}
		e := es[rng.Intn(len(es))]
		if bridges[e.EID] {
			continue
		}
		key := (graph.EdgeKey{U: u, V: e.To}).Norm()
		if seen[key] {
			continue
		}
		seen[key] = true
		keys = append(keys, key)
	}
	if len(keys) < count {
		b.Fatalf("only drew %d of %d failable links", len(keys), count)
	}
	return keys
}

// BenchmarkApplyFailures measures one single-link failure repair on a
// built n=4096 snapshot — the per-event cost the continuous-dynamics
// engine pays — in both regimes, cycling through pre-drawn links so no
// two consecutive iterations repair the identical blast radius.
func BenchmarkApplyFailures(b *testing.B) {
	const n = 4096
	env := buildEnv(b, n, 1)
	k := vicinity.DefaultK(n)
	benchRegimes(b, func(b *testing.B, compact bool) {
		base := mustBuild(b, env, k, compact)
		keys := drawFailable(b, base, 64, 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := base.ApplyFailures([]graph.EdgeKey{keys[i%len(keys)]})
			if err != nil {
				b.Fatal(err)
			}
			_ = rep
		}
	})
}

// BenchmarkApplyRecoveries measures the dual: restoring a failed link
// into an n=4096 snapshot. Each iteration recovers on the same one-link-
// down snapshot, so the measured work is one recovery's blast radius.
func BenchmarkApplyRecoveries(b *testing.B) {
	const n = 4096
	env := buildEnv(b, n, 1)
	k := vicinity.DefaultK(n)
	benchRegimes(b, func(b *testing.B, compact bool) {
		base := mustBuild(b, env, k, compact)
		key := drawFailable(b, base, 1, 3)[0]
		w := env.G.EdgeWeight(key.U, key.V)
		failed, err := base.ApplyFailures([]graph.EdgeKey{key})
		if err != nil {
			b.Fatal(err)
		}
		restore := []graph.WeightedLink{{U: key.U, V: key.V, W: w}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := failed.ApplyRecoveries(restore)
			if err != nil {
				b.Fatal(err)
			}
			_ = rep
		}
	})
}

// BenchmarkChainFold measures folding a chained n=4096 snapshot's overlay
// into fresh base storage — the compaction cost a long timeline amortizes
// over foldOverlayFraction×shards worth of events. The overlay being
// folded is a real accumulated chain (driven until just under the
// threshold), not a synthetic one. vic-ms/op is the window half of the
// fold, forest-ms/op the forest half, as BenchmarkBuild splits a build.
func BenchmarkChainFold(b *testing.B) {
	const n = 4096
	env := buildEnv(b, n, 1)
	k := vicinity.DefaultK(n)
	benchRegimes(b, func(b *testing.B, compact bool) {
		base := mustBuild(b, env, k, compact)
		keys := drawFailable(b, base, 64, 4)
		cur := base
		total := n + len(env.Landmarks)
		for i := 0; i < len(keys); i++ {
			next, err := cur.ApplyFailures([]graph.EdgeKey{keys[i]})
			if err != nil {
				b.Fatal(err)
			}
			if next.RepairStats().Folded {
				break // keep cur: the largest pre-fold overlay we can get
			}
			cur = next
			if float64(cur.OverlayShards()) > 0.8*foldOverlayFraction*float64(total) {
				break
			}
		}
		if cur.OverlayShards() == 0 {
			b.Fatal("chain accumulated no overlay to fold")
		}
		b.ReportMetric(float64(cur.OverlayShards()), "overlay-shards")
		var vic, forest time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			var forestSweep func()
			if compact {
				cs := cur.foldCompactWindows()
				forestSweep = func() { cur.foldCompactForest(cs) }
			} else {
				_ = cur.foldExactWindows()
				forestSweep = func() { _ = cur.foldExactForest() }
			}
			t1 := time.Now()
			forestSweep()
			vic, forest = vic+t1.Sub(t0), forest+time.Since(t1)
		}
		b.ReportMetric(float64(vic.Microseconds())/1e3/float64(b.N), "vic-ms/op")
		b.ReportMetric(float64(forest.Microseconds())/1e3/float64(b.N), "forest-ms/op")
	})
}

// BenchmarkRepairChainAge guards the overlay table's per-event cost: a
// repair copies its parent's two slot arrays once (one pointer per node,
// one slice header per landmark) and writes its own blast radius, whatever
// the table already holds, so an event on an aged chain must cost what it
// costs on a fresh one. Compare the age=0 and age=48 lines: ns/op and
// allocs/op of the same order, neither growing with age.
func BenchmarkRepairChainAge(b *testing.B) {
	const n = 1024
	env := buildEnv(b, n, 1)
	k := vicinity.DefaultK(n)
	for _, age := range []int{0, 48} {
		b.Run(fmt.Sprintf("age=%d", age), func(b *testing.B) {
			base := mustBuild(b, env, k, false)
			keys := drawFailable(b, base, age+64, 5)
			cur := base
			for i := 0; i < age; i++ {
				next, err := cur.ApplyFailures([]graph.EdgeKey{keys[i]})
				if err != nil {
					b.Fatal(err)
				}
				cur = next
			}
			// Keep a fold out of the measured loop: probes chain one event
			// onto cur, so leave margin below the compaction threshold.
			total := float64(env.N() + len(env.Landmarks))
			if float64(cur.OverlayShards()) > 0.6*foldOverlayFraction*total {
				cur = cur.fold()
			}
			b.ReportMetric(float64(cur.OverlayShards()), "overlay-shards")
			probe := keys[age:]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := cur.ApplyFailures([]graph.EdgeKey{probe[i%len(probe)]})
				if err != nil {
					b.Fatal(err)
				}
				_ = rep
			}
		})
	}
}
