package disco

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§5): BenchmarkExperiments runs each entry of eval.Experiments
// and prints the same rows/series the paper reports (once, on the first
// iteration). Sizes default to laptop-scale — the shapes (who wins, by
// what factor, where crossovers fall) are the reproduction target;
// cmd/discosim -full runs paper-scale sizes.
//
// The experiments fan out over the internal/parallel worker pool; bound
// it with -workers (default GOMAXPROCS). Printed results are bit-identical
// at any worker count, so -workers only moves the ns/op number:
//
//	go test -bench 'Experiments/fig3' -benchtime 1x -workers 8
//
// The BenchmarkAblation* group are the design-choice ablations that have no
// table entry: vicinity size, group-member selection and forgetful
// routing. The two at the bottom are microbenchmarks of the substrate:
// overlay dissemination and addr.Make, the address encoder behind the
// addrsize experiment. Routing, the SSSP kernels and the forwarding planes
// are benchmarked in bench/, internal/graph and internal/forward.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"disco/internal/addr"
	"disco/internal/core"
	"disco/internal/eval"
	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/overlay"
	"disco/internal/parallel"
	"disco/internal/pathvector"
	"disco/internal/sim"
	"disco/internal/sloppy"
	"disco/internal/snapshot"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

const benchSeed = 1

var workersFlag = flag.Int("workers", 0, "worker pool size for the experiment harness (0 = GOMAXPROCS)")

func TestMain(m *testing.M) {
	flag.Parse()
	parallel.SetWorkers(*workersFlag)
	os.Exit(m.Run())
}

var printed = map[string]bool{}

// show prints an experiment's formatted output once per benchmark.
func show(b *testing.B, out string) {
	b.Helper()
	if !printed[b.Name()] {
		printed[b.Name()] = true
		fmt.Printf("\n--- %s ---\n%s", b.Name(), out)
	}
}

// BenchmarkExperiments runs every entry of eval.Experiments — the table
// cmd/discosim dispatches from — at its default (scaled) sizes, so a figure
// is spelled once and `-bench 'Experiments/fig3'` is `discosim -exp fig3
// -pairs 300` with a timer around it.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range eval.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := e.Run(eval.Options{Seed: benchSeed, Pairs: 300})
				if err != nil {
					b.Fatal(err)
				}
				show(b, out)
			}
		})
	}
}

// --- Ablations (design choices called out in DESIGN.md) -----------------------

// BenchmarkAblationVicinitySize sweeps |V(v)| around the default
// sqrt(n log n): the state/stretch trade-off NDDisco's fixed-size
// vicinities pin down.
func BenchmarkAblationVicinitySize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := 2048
		g := topology.Geometric(rand.New(rand.NewSource(benchSeed)), n, 8)
		env := static.NewEnv(g, benchSeed)
		k0 := vicinity.DefaultK(n)
		out := fmt.Sprintf("Vicinity-size ablation, geometric n=%d (default K=%d)\n", n, k0)
		out += fmt.Sprintf("  %8s %14s %14s\n", "K", "first stretch", "later stretch")
		ps := metrics.SamplePairs(rand.New(rand.NewSource(benchSeed+1)), n, 200)
		for _, k := range []int{k0 / 4, k0 / 2, k0, 2 * k0} {
			nd := core.NewNDDisco(env, core.WithK(k))
			useSnapshot(b, nd)
			f, l, c := 0.0, 0.0, 0
			for _, pr := range ps {
				s, t := graph.NodeID(pr.Src), graph.NodeID(pr.Dst)
				short := nd.ShortestDist(s, t)
				if short == 0 {
					continue
				}
				f += g.PathLength(nd.FirstRoute(s, t, core.ShortcutNoPathKnowledge)) / short
				l += g.PathLength(nd.LaterRoute(s, t, core.ShortcutNoPathKnowledge)) / short
				c++
			}
			out += fmt.Sprintf("  %8d %14.3f %14.3f\n", k, f/float64(c), l/float64(c))
		}
		show(b, out)
	}
}

// BenchmarkAblationGroupMemberSelection: longest-prefix vs
// closest-with-long-enough-prefix w selection (§4.4 parenthetical).
func BenchmarkAblationGroupMemberSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := 2048
		g := topology.GnmAvgDeg(rand.New(rand.NewSource(benchSeed)), n, 8)
		env := static.NewEnv(g, benchSeed)
		ps := metrics.SamplePairs(rand.New(rand.NewSource(benchSeed+1)), n, 300)
		out := fmt.Sprintf("Group-member selection ablation, G(n,m) n=%d\n", n)
		for _, mode := range []struct {
			name string
			opts []core.DiscoOption
		}{
			{"longest-prefix", []core.DiscoOption{core.WithSeed(benchSeed)}},
			{"closest-member", []core.DiscoOption{core.WithSeed(benchSeed), core.WithClosestMember()}},
		} {
			d := core.NewDisco(env, mode.opts...)
			useSnapshot(b, d.ND)
			sum, cnt := 0.0, 0
			for _, pr := range ps {
				s, t := graph.NodeID(pr.Src), graph.NodeID(pr.Dst)
				short := d.ND.ShortestDist(s, t)
				if short == 0 {
					continue
				}
				sum += g.PathLength(d.FirstRoute(s, t, core.ShortcutNoPathKnowledge)) / short
				cnt++
			}
			fb, _ := d.Fallbacks()
			out += fmt.Sprintf("  %-15s mean first-packet stretch %.4f (fallbacks %d)\n",
				mode.name, sum/float64(cnt), fb)
		}
		show(b, out)
	}
}

// BenchmarkAblationForgetfulRouting compares control-plane state with and
// without forgetful routing [24] (§4.2: Θ(δ·sqrt(n log n)) vs
// Θ(sqrt(n log n))).
func BenchmarkAblationForgetfulRouting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := 256
		g := topology.GnmAvgDeg(rand.New(rand.NewSource(benchSeed)), n, 8)
		env := static.NewEnv(g, benchSeed)
		k := vicinity.DefaultK(n)
		run := func(forgetful bool) (float64, float64) {
			var eng sim.Engine
			p := pathvector.New(g, &eng, pathvector.Config{
				Mode: pathvector.ModeVicinity, K: k,
				IsLandmark: env.IsLM, Forgetful: forgetful,
			})
			p.Start()
			eng.Run(0)
			data, ctrl := 0, 0
			for v := 0; v < n; v++ {
				data += p.DataEntries(graph.NodeID(v))
				ctrl += p.ControlEntries(graph.NodeID(v))
			}
			return float64(data) / float64(n), float64(ctrl) / float64(n)
		}
		d1, c1 := run(false)
		d2, c2 := run(true)
		show(b, fmt.Sprintf(
			"Forgetful-routing ablation, G(n,m) n=%d K=%d\n"+
				"  standard : data %.1f entries/node, control %.1f entries/node\n"+
				"  forgetful: data %.1f entries/node, control %.1f entries/node\n",
			n, k, d1, c1, d2, c2))
	}
}

// --- Substrate microbenchmarks -------------------------------------------------

func benchGraph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	return topology.GnmAvgDeg(rand.New(rand.NewSource(benchSeed)), n, 8)
}

// useSnapshot builds the snapshot for nd's vicinity size and installs it:
// routing before UseSnapshot panics.
func useSnapshot(b *testing.B, nd *core.NDDisco) {
	b.Helper()
	snap, err := snapshot.Build(nd.Env.G, nd.K, nd.Env.Landmarks)
	if err != nil {
		b.Fatalf("snapshot build: %v", err)
	}
	nd.UseSnapshot(snap)
}

func BenchmarkOverlayDisseminate(b *testing.B) {
	env := static.NewEnv(benchGraph(b, 4096), benchSeed)
	view := sloppy.BuildView(env.Hashes, env.NEst)
	net := overlay.Build(env.Hashes, view, 1, rand.New(rand.NewSource(benchSeed)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Disseminate(graph.NodeID(i % 4096))
	}
}

func BenchmarkAddressMake(b *testing.B) {
	g := benchGraph(b, 4096)
	env := static.NewEnv(g, benchSeed)
	paths := make([][]graph.NodeID, g.N())
	for v := range paths {
		paths[v] = env.LandmarkPath(graph.NodeID(v))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr.Make(g, paths[i%len(paths)])
	}
}
