package eval

import (
	"flag"
	"testing"

	"disco/internal/parallel"
)

// invarianceWorkers is the pooled worker count the invariance test
// compares against workers=1. CI runs the test at -workers 1, 4 and 16 so
// schedule-dependent bugs that only appear at particular pool widths are
// caught.
var invarianceWorkers = flag.Int("workers", 8, "pooled worker count TestWorkerCountInvariance compares against workers=1")

// atWorkers runs fn with the process-wide worker pool bounded to w and
// restores the default afterwards.
func atWorkers(t *testing.T, w int, fn func() string) string {
	t.Helper()
	parallel.SetWorkers(w)
	defer parallel.SetWorkers(0)
	return fn()
}

// TestWorkerCountInvariance is the harness's core guarantee: every
// parallelized experiment formats to byte-identical output with 1 worker
// and with -workers (default 8), on the same seed. Under -race this
// doubles as the data-race sweep over every concurrent experiment path,
// including the shared-snapshot reads every fork performs.
func TestWorkerCountInvariance(t *testing.T) {
	cases := []struct {
		name  string
		short bool // keep in -short runs (the race job's quick sweep)
		run   func() string
	}{
		{"Fig2State", true, func() string { return Config{}.Fig2State(TopoGnm, 192, 1).Format() }},
		{"Fig3Stretch", true, func() string { return Config{}.Fig3Stretch(TopoGeometric, 192, 3, 60).Format() }},
		{"Fig45", true, func() string { return Config{}.Fig45(TopoGnm, 128, 4, 40).Format() }},
		{"Fig6Shortcuts", false, func() string {
			return Config{}.Fig6Shortcuts([]Fig6Spec{
				{Label: "gnm-128", Kind: TopoGnm, N: 128},
				{Label: "geo-128", Kind: TopoGeometric, N: 128},
			}, 5, 40).Format()
		}},
		{"Fig7StateBytes", false, func() string { return Config{}.Fig7StateBytes(256, 6).Format() }},
		{"Fig8Convergence", false, func() string { return Fig8Convergence([]int{64, 96, 128, 192}, 96, 13).Format() }},
		{"Fig9Scaling", false, func() string { return Config{}.Fig9Scaling([]int{128, 192}, 8, 40).Format() }},
		{"Fig10ASCongestion", false, func() string { return Config{}.Fig10ASCongestion(192, 9).Format() }},
		{"LandmarkStrategies", false, func() string { return Config{}.LandmarkStrategies(TopoASLike, 192, 15, 40).Format() }},
		{"EstimateError", false, func() string { return Config{}.EstimateError(192, 11, 0.4, 40).Format() }},
		{"TradeoffSweep", false, func() string { return TradeoffSweep(TopoGnm, 192, []int{1, 2, 3}, 19, 40).Format() }},
		{"StaticAccuracy", false, func() string { return Config{}.StaticAccuracy(128, 5, 40).Format() }},
		{"ChurnCost", true, func() string {
			r, err := ChurnCost(96, 17, 2)
			if err != nil {
				return "churn error: " + err.Error()
			}
			return r.Format()
		}},
		{"FailureScenarios", true, func() string { return Config{}.FailureScenarios(TopoGnm, 192, 21, 40).Format() }},
		{"ChurnTimeline", true, func() string {
			r, err := Config{}.ChurnTimeline(TopoGnm, 128, 23, 40, 0)
			if err != nil {
				return "churn-timeline error: " + err.Error()
			}
			return r.Format()
		}},
		{"ServeStorm", true, func() string {
			// Only the deterministic event log — the measured load is
			// wall-clock by design. Queriers run concurrently with the
			// pooled probe routing, so under -race this case doubles as a
			// query-plane-vs-repair-loop race sweep.
			r, err := Config{}.ServeStorm(TopoGnm, 128, 23, 40, 8, 4, false)
			if err != nil {
				return "serve-storm error: " + err.Error()
			}
			return r.FormatEvents()
		}},
	}
	pooledWorkers := *invarianceWorkers
	if pooledWorkers < 1 {
		pooledWorkers = 1
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && !tc.short {
				t.Skip("short mode: covered by the full run")
			}
			serial := atWorkers(t, 1, tc.run)
			pooled := atWorkers(t, pooledWorkers, tc.run)
			if serial != pooled {
				t.Errorf("output differs between workers=1 and workers=%d:\n--- workers=1 ---\n%s--- workers=%d ---\n%s", pooledWorkers, serial, pooledWorkers, pooled)
			}
			again := atWorkers(t, pooledWorkers, tc.run)
			if pooled != again {
				t.Errorf("output not stable across repeated workers=%d runs", pooledWorkers)
			}
		})
	}
}
