package eval

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite the golden files under testdata/ with current output")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update. The goldens pin the reproduced numbers: a refactor
// that silently shifts any figure's values fails here before anyone
// compares against the paper again.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/eval -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s.\n--- want ---\n%s--- got ---\n%s\n(if the change is intended, regenerate with -update)", path, want, got)
	}
}

func TestGoldenFig2State(t *testing.T) {
	checkGolden(t, "fig2_state_gnm256", Config{}.Fig2State(TopoGnm, 256, 1).Format())
}

// TestGoldenCompact pins the compact snapshot encoding to the same golden
// files the exact regime produces: fig2 and fig4 on the unit-weight G(n,m)
// topology (levels) and fig5 and the fig6 geometric row on geometric maps
// (float64 distances) must not move by a single byte when the route state
// is bit-packed. (Never run with -update: these goldens belong to the
// exact regime; a compact run that needs its own golden is an equivalence
// bug.)
func TestGoldenCompact(t *testing.T) {
	if *updateGoldens {
		t.Skip("goldens are written by the exact regime")
	}
	compact := Config{Compact: true}
	checkGolden(t, "fig2_state_gnm256", compact.Fig2State(TopoGnm, 256, 1).Format())
	checkGolden(t, "fig4_gnm256", compact.Fig45(TopoGnm, 256, 4, 80).Format())
	checkGolden(t, "fig5_geo256", compact.Fig45(TopoGeometric, 256, 4, 80).Format())
	checkGolden(t, "fig6_shortcuts_256", compact.Fig6Shortcuts(fig6Specs, 5, 80).Format())
}

func TestGoldenFig3Stretch(t *testing.T) {
	checkGolden(t, "fig3_stretch_geo512", Config{}.Fig3Stretch(TopoGeometric, 512, 3, 150).Format())
}

func TestGoldenFig4Gnm(t *testing.T) {
	checkGolden(t, "fig4_gnm256", Config{}.Fig45(TopoGnm, 256, 4, 80).Format())
}

func TestGoldenFig5Geometric(t *testing.T) {
	checkGolden(t, "fig5_geo256", Config{}.Fig45(TopoGeometric, 256, 4, 80).Format())
}

// fig6Specs are the fig6 golden's rows: a geometric and a G(n,m) map.
var fig6Specs = []Fig6Spec{
	{Label: "Geometric", Kind: TopoGeometric, N: 256},
	{Label: "GNM", Kind: TopoGnm, N: 256},
}

func TestGoldenFig6Shortcuts(t *testing.T) {
	checkGolden(t, "fig6_shortcuts_256", Config{}.Fig6Shortcuts(fig6Specs, 5, 80).Format())
}

func TestGoldenFig9Scaling(t *testing.T) {
	checkGolden(t, "fig9_scaling_256_512", Config{}.Fig9Scaling([]int{256, 512}, 8, 80).Format())
}

// The four goldens below were written by the per-experiment loops that
// sweepPairs replaced and have not been regenerated since: they are what
// says the one sweep computes what the eight did.

func TestGoldenLandmarkStrategies(t *testing.T) {
	checkGolden(t, "landmarks_aslike256", Config{}.LandmarkStrategies(TopoASLike, 256, 15, 80).Format())
}

func TestGoldenEstimateError(t *testing.T) {
	checkGolden(t, "nerror_gnm256", Config{}.EstimateError(256, 11, 0.4, 80).Format())
}

func TestGoldenTradeoffSweep(t *testing.T) {
	checkGolden(t, "tradeoff_gnm256", TradeoffSweep(TopoGnm, 256, []int{1, 2, 3}, 19, 80).Format())
}

func TestGoldenStaticAccuracy(t *testing.T) {
	checkGolden(t, "accuracy_gnm192", Config{}.StaticAccuracy(192, 5, 80).Format())
}

// TestGoldenFailures pins the failure-scenario family. The parameters
// match the CI smoke step (`discosim -exp failures -n 256 -seed 1`), which
// diffs the harness's stdout against this same golden file.
func TestGoldenFailures(t *testing.T) {
	checkGolden(t, "failures_gnm256", Config{}.FailureScenarios(TopoGnm, 256, 1, 500).Format())
}

// TestGoldenServeStorm pins the serving mode's deterministic per-epoch
// event log. The parameters match the CI serve-smoke step
// (`discosim -exp serve-storm -n 256 -seed 1`), which strips the measured
// "measured:" line and diffs the rest against this same golden file —
// only FormatEvents output lands here, never wall-clock quantities.
func TestGoldenServeStorm(t *testing.T) {
	r, err := Config{}.ServeStorm(TopoGnm, 256, 1, 500, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "serve_storm_gnm256", r.FormatEvents())
}

// TestGoldenFig8 pins the path-vector control plane: both simulated and
// extrapolated full path-vector rows, the S4 and vicinity modes, and the
// overlay dissemination behind the Disco columns.
func TestGoldenFig8(t *testing.T) {
	checkGolden(t, "fig8_gnm64_256", Fig8Convergence([]int{64, 128, 256}, 128, 1).Format())
}

// TestGoldenChurnCost pins the path-vector dynamics: Clone, FailLink,
// PruneStale and the refresh rounds.
func TestGoldenChurnCost(t *testing.T) {
	r, err := ChurnCost(128, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "churn_gnm128", r.Format())
}

func TestGoldenFingers(t *testing.T) {
	checkGolden(t, "fingers_gnm256", FingerExperiment(256, 1).Format())
}

func TestGoldenResolveImbalance(t *testing.T) {
	checkGolden(t, "imbalance_512", ResolveImbalance(512, 1).Format())
}

// TestGoldenChurnTimeline pins the continuous-churn timeline — blast radii,
// calibrated message model and per-event delivery. The parameters match
// the CI smoke step (`discosim -exp churn-timeline -n 256 -seed 1`), which
// diffs the harness's stdout against this same golden file.
func TestGoldenChurnTimeline(t *testing.T) {
	r, err := Config{}.ChurnTimeline(TopoGnm, 256, 1, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "churn_timeline_gnm256", r.Format())
}

func TestGoldenFig7StateBytes(t *testing.T) {
	checkGolden(t, "fig7_routerlike1024", Config{}.Fig7StateBytes(1024, 1).Format())
}

func TestGoldenFig10ASCongestion(t *testing.T) {
	checkGolden(t, "fig10_aslike1024", Config{}.Fig10ASCongestion(1024, 1).Format())
}

func TestGoldenAddrSizes(t *testing.T) {
	checkGolden(t, "addrsize_routerlike2048", AddrSizes(2048, 1).Format())
}
