package disco

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§5). Each BenchmarkFig* runs the corresponding experiment
// from internal/eval and prints the same rows/series the paper reports
// (once, on the first iteration). Sizes default to laptop-scale — the
// shapes (who wins, by what factor, where crossovers fall) are the
// reproduction target; cmd/discosim -full runs paper-scale sizes.
//
// The experiments fan out over the internal/parallel worker pool; bound
// it with -workers (default GOMAXPROCS). Printed results are bit-identical
// at any worker count, so -workers only moves the ns/op number:
//
//	go test -bench Fig3 -workers 8
//
// The Benchmark{Route,Overlay,Address,...} group at the bottom are ordinary
// performance microbenchmarks of the substrate; the SSSP kernels and the
// forwarding planes are benchmarked in internal/graph and internal/forward.

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

// --- Fig. 2: state CDFs ---------------------------------------------------

func BenchmarkFig2StateGeometric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.Config{}.Fig2State(eval.TopoGeometric, 2048, benchSeed).Format())
	}
}

func BenchmarkFig2StateASLike(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.Config{}.Fig2State(eval.TopoASLike, 2048, benchSeed).Format())
	}
}

func BenchmarkFig2StateRouterLike(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.Config{}.Fig2State(eval.TopoRouterLike, 4096, benchSeed).Format())
	}
}

// --- Fig. 3: stretch CDFs ---------------------------------------------------

func BenchmarkFig3StretchGeometric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.Config{}.Fig3Stretch(eval.TopoGeometric, 2048, benchSeed, 300).Format())
	}
}

func BenchmarkFig3StretchASLike(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.Config{}.Fig3Stretch(eval.TopoASLike, 2048, benchSeed, 300).Format())
	}
}

func BenchmarkFig3StretchRouterLike(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.Config{}.Fig3Stretch(eval.TopoRouterLike, 4096, benchSeed, 300).Format())
	}
}

// --- Figs. 4 & 5: 1,024-node three-panel comparisons incl. VRR -------------

func BenchmarkFig4Gnm1024(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.Config{}.Fig45(eval.TopoGnm, 1024, benchSeed, 300).Format())
	}
}

func BenchmarkFig5Geometric1024(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.Config{}.Fig45(eval.TopoGeometric, 1024, benchSeed, 300).Format())
	}
}

// --- Fig. 6: shortcutting heuristics table ----------------------------------

func BenchmarkFig6Shortcuts(b *testing.B) {
	specs := []eval.Fig6Spec{
		{Label: "AS-Level", Kind: eval.TopoASLike, N: 2048},
		{Label: "Router-level", Kind: eval.TopoRouterLike, N: 2048},
		{Label: "Geometric", Kind: eval.TopoGeometric, N: 2048},
		{Label: "GNM", Kind: eval.TopoGnm, N: 2048},
	}
	for i := 0; i < b.N; i++ {
		show(b, eval.Config{}.Fig6Shortcuts(specs, benchSeed, 200).Format())
	}
}

// --- Fig. 7: state in entries and bytes -------------------------------------

func BenchmarkFig7StateBytes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.Config{}.Fig7StateBytes(4096, benchSeed).Format())
	}
}

// --- Fig. 8: control messaging until convergence ----------------------------

func BenchmarkFig8Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.Fig8Convergence([]int{128, 256, 512, 1024}, 512, benchSeed).Format())
	}
}

// --- Fig. 9: scaling sweep ---------------------------------------------------

func BenchmarkFig9Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.Config{}.Fig9Scaling([]int{1024, 2048, 4096}, benchSeed, 200).Format())
	}
}

// --- Fig. 10: AS-level congestion tail ---------------------------------------

func BenchmarkFig10ASCongestion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.Config{}.Fig10ASCongestion(2048, benchSeed).Format())
	}
}

// --- §4.2 address sizes ------------------------------------------------------

func BenchmarkAddrSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.AddrSizes(8192, benchSeed).Format())
	}
}

// --- §5 static-simulation accuracy -------------------------------------------

func BenchmarkStaticAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.Config{}.StaticAccuracy(512, benchSeed, 300).Format())
	}
}

// --- §5 estimate-error robustness ---------------------------------------------

func BenchmarkEstimateError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := eval.Config{}.EstimateError(1024, benchSeed, 0.4, 300).Format() +
			eval.Config{}.EstimateError(1024, benchSeed, 0.6, 300).Format()
		show(b, out)
	}
}

// --- §5 finger-count experiment -------------------------------------------------

func BenchmarkFingerCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.FingerExperiment(1024, benchSeed).Format())
	}
}

// --- Ablations (design choices called out in DESIGN.md) -----------------------

// BenchmarkAblationResolveImbalance: single vs multiple hash functions in
// the landmark resolution DB (§4.5).
func BenchmarkAblationResolveImbalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.ResolveImbalance(4096, benchSeed).Format())
	}
}

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

// BenchmarkAblationLandmarkStrategy: §6 operator-chosen landmarks (random
// vs high-degree vs adversarial low-degree) on the AS-like topology.
func BenchmarkAblationLandmarkStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.Config{}.LandmarkStrategies(eval.TopoASLike, 2048, benchSeed, 200).Format())
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

// BenchmarkAblationAddressing compares the paper's explicit-route
// addresses with the §4.2 fixed-width interval-label alternative.
func BenchmarkAblationAddressing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := 4096
		g := topology.RouterLike(rand.New(rand.NewSource(benchSeed)), n)
		env := static.NewEnv(g, benchSeed)
		parent := make([]graph.NodeID, n)
		for v := 0; v < n; v++ {
			path := env.LandmarkPath(graph.NodeID(v))
			if len(path) >= 2 {
				parent[v] = path[len(path)-2]
			} else {
				parent[v] = graph.None
			}
		}
		it := addr.BuildIntervals(parent)
		mean, p95, max := env.AddrSizeStats()
		show(b, fmt.Sprintf(
			"Addressing ablation, router-like n=%d, %d landmarks\n"+
				"  explicit routes: mean %.1f bits, p95 %.1f, max %.1f (variable)\n"+
				"  interval labels: %d bits fixed + per-node child-interval state\n",
			n, len(env.Landmarks), mean*8, p95*8, max*8, it.BitsPerLabel()))
	}
}

// BenchmarkAblationTradeoff: the §6 open question — other points of the
// state/stretch tradeoff space — via the TZ k-level family (k=2 is
// Disco's point).
func BenchmarkAblationTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.TradeoffSweep(eval.TopoGnm, 2048, []int{1, 2, 3, 4}, benchSeed, 200).Format())
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

// BenchmarkAblationChurnCost: messages to re-converge after a single link
// failure vs initial convergence (§5 "future work" dynamics).
func BenchmarkAblationChurnCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.ChurnCost(256, benchSeed, 3)
		if err != nil {
			b.Fatal(err)
		}
		show(b, r.Format())
	}
}

// BenchmarkFailureScenarios: the failure-family wall time is dominated by
// incremental snapshot repair plus per-pair routing over repaired state —
// the cost that blast-radius repair (vs full rebuilds per trial) keeps
// proportional to the failures, not to n.
func BenchmarkFailureScenarios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		show(b, eval.Config{}.FailureScenarios(eval.TopoGnm, 512, benchSeed, 100).Format())
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

func BenchmarkRouteFirst(b *testing.B) {
	g := benchGraph(b, 2048)
	env := static.NewEnv(g, benchSeed)
	d := core.NewDisco(env)
	useSnapshot(b, d.ND)
	rng := rand.New(rand.NewSource(benchSeed))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := graph.NodeID(rng.Intn(2048))
		t := graph.NodeID(rng.Intn(2048))
		if s == t {
			continue
		}
		d.FirstRoute(s, t, core.ShortcutNoPathKnowledge)
	}
}

func BenchmarkRouteLater(b *testing.B) {
	g := benchGraph(b, 2048)
	env := static.NewEnv(g, benchSeed)
	d := core.NewDisco(env)
	useSnapshot(b, d.ND)
	rng := rand.New(rand.NewSource(benchSeed))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := graph.NodeID(rng.Intn(2048))
		t := graph.NodeID(rng.Intn(2048))
		if s == t {
			continue
		}
		d.LaterRoute(s, t, core.ShortcutNoPathKnowledge)
	}
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

func BenchmarkAddressEncode(b *testing.B) {
	g := benchGraph(b, 4096)
	env := static.NewEnv(g, benchSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := env.AddrOf(graph.NodeID(i % 4096))
		a.Encode(g)
	}
}
