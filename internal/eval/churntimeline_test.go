package eval

import (
	"strings"
	"testing"

	"disco/internal/graph"
	"disco/internal/snapshot"
	"disco/internal/static"
	"disco/internal/vicinity"
)

// TestChurnTimelineFormat sanity-checks the timeline wiring: events of
// both kinds occur, the model calibrated to something positive, and no
// NaN/Inf leaks into the table. (Determinism and values are pinned by
// TestWorkerCountInvariance and the golden.)
func TestChurnTimelineFormat(t *testing.T) {
	r, err := Config{}.ChurnTimeline(TopoGnm, 128, 3, 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Events) != churnTimelineEvents {
		t.Fatalf("got %d events, want %d", len(r.Events), churnTimelineEvents)
	}
	kinds := map[string]int{}
	for _, ev := range r.Events {
		kinds[ev.Kind]++
	}
	if kinds["fail"] == 0 || kinds["recover"] == 0 {
		t.Fatalf("timeline must interleave failures and recoveries, got %v", kinds)
	}
	if r.Model.PerVicEntry <= 0 && r.Model.PerRowNode <= 0 {
		t.Fatalf("calibration produced a zero model: %+v", r.Model)
	}
	out := r.Format()
	for _, want := range []string{"fail", "recover", "msg/node", "calibrated event-driven", "total modeled re-convergence"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("format printed NaN/Inf:\n%s", out)
	}
}

// TestChurnTimelineInputErrors pins the input validation: sizes below the
// calibration topology's G(n,m) floor must error, not panic downstream.
func TestChurnTimelineInputErrors(t *testing.T) {
	for _, n := range []int{1, 8} {
		if _, err := (Config{}).ChurnTimeline(TopoGnm, n, 1, 10, 4); err == nil {
			t.Errorf("n=%d should error", n)
		}
	}
	if _, err := (Config{}).ChurnTimeline(TopoGnm, 128, 1, 0, 4); err == nil {
		t.Error("pairs=0 should error")
	}
}

// TestCalibrateMessageModel checks the calibration against ground truth:
// the fitted model must reproduce the measured mean triggered cost of the
// calibration failures to within a factor — it is a least-squares fit of
// exactly those samples — and both coefficients must be non-negative.
func TestCalibrateMessageModel(t *testing.T) {
	calN := 192
	model, initial, err := CalibrateMessageModel(calN, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	if model.PerVicEntry < 0 || model.PerRowNode < 0 {
		t.Fatalf("negative coefficient: %+v", model)
	}
	if model.PerVicEntry == 0 && model.PerRowNode == 0 {
		t.Fatalf("zero model: %+v", model)
	}
	if initial <= 0 {
		t.Fatalf("initial convergence %v", initial)
	}
	if model.CalN != calN {
		t.Fatalf("CalN = %d, want %d", model.CalN, calN)
	}

	// Re-measure the same churn trials and compare model vs measurement in
	// aggregate: the fit minimizes squared error over these very samples,
	// so the totals must agree within a small factor.
	g := BuildTopo(TopoGnm, calN, 7)
	cr, err := ChurnCostOn(g, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	env := static.NewEnv(g, 7)
	base, err := snapshot.Build(g, vicinity.DefaultK(calN), env.Landmarks)
	if err != nil {
		t.Fatal(err)
	}
	var measured, modeled float64
	for i, link := range cr.Failed {
		rep, err := base.ApplyFailures([]graph.EdgeKey{link})
		if err != nil {
			t.Fatal(err)
		}
		measured += cr.TriggeredEach[i] * float64(calN)
		modeled += model.Messages(rep.RepairStats())
	}
	if measured <= 0 {
		t.Fatalf("no triggered messages measured")
	}
	if ratio := modeled / measured; ratio < 0.5 || ratio > 2 {
		t.Fatalf("model prices the calibration failures at %.1f msgs vs %.1f measured (ratio %.2f)", modeled, measured, ratio)
	}
	t.Logf("calibration: %s; aggregate model/measured = %.3f", model, modeled/measured)
}
