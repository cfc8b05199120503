package eval

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"disco/internal/metrics"
)

// get returns the CDF of a result's labeled series, or nil.
func get(labels []string, cdfs []*metrics.CDF, label string) *metrics.CDF {
	if i := slices.Index(labels, label); i >= 0 {
		return cdfs[i]
	}
	return nil
}

func TestFig2StateSmall(t *testing.T) {
	r := Config{}.Fig2State(TopoGnm, 256, 1)
	if len(r.CDFs) != 3 {
		t.Fatal("want 3 series")
	}
	disco := get(r.Labels, r.CDFs, "Disco")
	nd := get(r.Labels, r.CDFs, "ND-Disco")
	if disco == nil || nd == nil || get(r.Labels, r.CDFs, "S4") == nil {
		t.Fatal("missing series")
	}
	if disco.Mean() <= nd.Mean() {
		t.Errorf("Disco mean state (%v) must exceed NDDisco (%v): group addresses", disco.Mean(), nd.Mean())
	}
	if !strings.Contains(r.Format(), "State at a node") {
		t.Error("Format output wrong")
	}
}

func TestFig2S4TailOnHeavyTopo(t *testing.T) {
	// On the AS-like power-law graph, S4's max state must blow far past
	// its mean (the Fig. 2 middle-panel signature) while Disco stays flat.
	// The imbalance ratio (max/median) grows with n for S4 — at paper
	// scale it reaches ~13x — while Disco's stays near 1 on any topology.
	// At this test size assert the ordering, not the asymptotic magnitude.
	r := Config{}.Fig2State(TopoASLike, 2048, 2)
	s4 := get(r.Labels, r.CDFs, "S4")
	disco := get(r.Labels, r.CDFs, "Disco")
	s4Ratio := s4.Max() / s4.Quantile(0.5)
	discoRatio := disco.Max() / disco.Quantile(0.5)
	if s4Ratio < 1.8*discoRatio {
		t.Errorf("S4 imbalance (%.2f) should far exceed Disco's (%.2f)", s4Ratio, discoRatio)
	}
	if discoRatio > 1.6 {
		t.Errorf("Disco state should be balanced: max %v p50 %v", disco.Max(), disco.Quantile(0.5))
	}
}

func TestFig3StretchSmall(t *testing.T) {
	r := Config{}.Fig3Stretch(TopoGeometric, 512, 3, 150)
	for _, label := range []string{"Disco-First", "Disco-Later", "S4-First", "S4-Later"} {
		c := get(r.Labels, r.CDFs, label)
		if c == nil || c.N() == 0 {
			t.Fatalf("series %s missing", label)
		}
		if c.Quantile(0) < 1-1e-9 {
			t.Errorf("%s has stretch < 1", label)
		}
	}
	if get(r.Labels, r.CDFs, "Disco-Later").Max() > 3+1e-6 {
		t.Errorf("Disco later stretch exceeded 3: %v", get(r.Labels, r.CDFs, "Disco-Later").Max())
	}
	// First-packet S4 should have the worst tail on a weighted graph.
	if get(r.Labels, r.CDFs, "S4-First").Max() <= get(r.Labels, r.CDFs, "S4-Later").Max() {
		t.Errorf("S4 first tail should exceed later tail")
	}
}

func TestFig45Small(t *testing.T) {
	r := Config{}.Fig45(TopoGnm, 256, 4, 100)
	if get(r.State.Labels, r.State.CDFs, "VRR") == nil || get(r.State.Labels, r.State.CDFs, "Path-vector") == nil {
		t.Fatal("VRR/PV series missing")
	}
	if get(r.Stretch.Labels, r.Stretch.CDFs, "VRR") == nil {
		t.Fatal("VRR stretch missing")
	}
	if get(r.Congestion.Labels, r.Congestion.CDFs, "Disco") == nil {
		t.Fatal("congestion missing")
	}
	// Path-vector state is n-1 + degree at every node.
	pv := get(r.State.Labels, r.State.CDFs, "Path-vector")
	if pv.Quantile(0) < 255 {
		t.Errorf("PV state min %v below n-1", pv.Quantile(0))
	}
	out := r.Format()
	if !strings.Contains(out, "Congestion") {
		t.Error("format incomplete")
	}
}

func TestFig6Small(t *testing.T) {
	r := Config{}.Fig6Shortcuts([]Fig6Spec{
		{Label: "gnm-256", Kind: TopoGnm, N: 256},
		{Label: "geo-256", Kind: TopoGeometric, N: 256},
	}, 5, 100)
	if len(r.Rows) != 6 {
		t.Fatalf("want 6 heuristics, got %d", len(r.Rows))
	}
	// No Shortcutting must be the worst (or tied) in every column;
	// Path Knowledge the best (or tied).
	for c := range r.Topos {
		none := r.Rows[0].Means[c]
		pk := r.Rows[5].Means[c]
		for _, row := range r.Rows {
			if row.Means[c] > none+1e-9 {
				t.Errorf("%s beats No Shortcutting in column %d", row.Heuristic, c)
			}
		}
		if pk > none {
			t.Errorf("Path Knowledge should not exceed No Shortcutting")
		}
	}
	if !strings.Contains(r.Format(), "No Path Knowledge") {
		t.Error("format incomplete")
	}
}

func TestFig7Small(t *testing.T) {
	r := Config{}.Fig7StateBytes(1024, 6)
	if len(r.Rows) != 3 {
		t.Fatal("want 3 rows")
	}
	for _, row := range r.Rows {
		if row.MeanEntries <= 0 || row.MaxEntries < row.MeanEntries {
			t.Errorf("row %s entries implausible: %+v", row.Name, row)
		}
		if row.MeanKBv6 <= row.MeanKBv4 {
			t.Errorf("IPv6 names must cost more than IPv4: %+v", row)
		}
	}
	// The Table-7 signature: S4's max/mean ratio exceeds Disco's (at paper
	// scale S4 reaches ~13x vs Disco's ~1.1x; the gap shrinks at small n
	// where landmarks are a large node fraction).
	s4r, dr := r.Rows[0], r.Rows[2]
	if s4r.MaxEntries/s4r.MeanEntries < 1.4*(dr.MaxEntries/dr.MeanEntries) {
		t.Errorf("S4 should break worst-case bounds vs Disco: S4 %0.f/%0.f Disco %0.f/%0.f",
			s4r.MaxEntries, s4r.MeanEntries, dr.MaxEntries, dr.MeanEntries)
	}
}

func TestFig8Small(t *testing.T) {
	r := Fig8Convergence([]int{64, 128, 256}, 128, 7)
	if len(r.Points) != 3 {
		t.Fatal("want 3 points")
	}
	last := r.Points[2]
	if !last.PVExtrapolated {
		t.Error("PV beyond cap must be extrapolated")
	}
	if last.NDDisco <= 0 || last.S4 <= 0 || last.Disco1 <= last.NDDisco {
		t.Errorf("messaging counts implausible: %+v", last)
	}
	if last.Disco3 <= last.Disco1 {
		t.Errorf("3 fingers must cost more than 1: %+v", last)
	}
	// Path vector must dominate the compact protocols at the largest size.
	if last.PathVector <= last.NDDisco {
		t.Errorf("full PV should cost more than NDDisco: %+v", last)
	}
}

// TestFig8Unextrapolated: a size above the cap with fewer than two
// simulated sizes below it has no path-vector figure, and prints "-", not 0.
func TestFig8Unextrapolated(t *testing.T) {
	r := Fig8Convergence([]int{64, 96}, 64, 7)
	last := r.Points[1]
	if !math.IsNaN(last.PathVector) || last.PVExtrapolated {
		t.Fatalf("n=96 above a cap of 64 with one simulated size: path vector %v, extrapolated %v", last.PathVector, last.PVExtrapolated)
	}
	row := strings.Fields(strings.Split(r.Format(), "\n")[3])
	if row[0] != "96" || row[1] != "-" {
		t.Errorf("row %q: want n=96 with path-vector \"-\"", row)
	}
}

func TestFig9Small(t *testing.T) {
	r := Config{}.Fig9Scaling([]int{256, 512}, 8, 80)
	if len(r.Points) != 2 {
		t.Fatal("want 2 points")
	}
	for _, p := range r.Points {
		if p.DiscoLater > 3+1e-6 || p.DiscoLater < 1 {
			t.Errorf("Disco later mean stretch %v out of range", p.DiscoLater)
		}
		if p.S4First < p.S4Later {
			t.Errorf("S4 first mean below later: %+v", p)
		}
		if p.DiscoState <= p.NDDiscoState {
			t.Errorf("Disco state must exceed NDDisco: %+v", p)
		}
	}
	// State grows with n.
	if r.Points[1].DiscoState <= r.Points[0].DiscoState {
		t.Errorf("state should grow with n")
	}
}

func TestFig10Small(t *testing.T) {
	r := Config{}.Fig10ASCongestion(1024, 9)
	if get(r.Labels, r.CDFs, "Disco") == nil || get(r.Labels, r.CDFs, "Path-vector") == nil || get(r.Labels, r.CDFs, "S4") == nil {
		t.Fatal("series missing")
	}
	// Total edge usage must be positive and the tails ordered sanely.
	if get(r.Labels, r.CDFs, "Disco").Max() <= 0 {
		t.Error("no congestion recorded")
	}
}

func TestAddrSizesSmall(t *testing.T) {
	r := AddrSizes(2048, 10)
	if r.MeanB <= 0 || r.P95B < r.MeanB || r.MaxB < r.P95B {
		t.Fatalf("address size stats disordered: %+v", r)
	}
	if r.MeanB > 8 {
		t.Errorf("mean address size %v too large", r.MeanB)
	}
}

func TestStaticAccuracySmall(t *testing.T) {
	r := Config{}.StaticAccuracy(192, 11, 100)
	if r.VicinityAgreement < 0.999 {
		t.Errorf("vicinity agreement %v, static and event simulators must coincide", r.VicinityAgreement)
	}
	if r.LMDistAgreement < 0.999 {
		t.Errorf("landmark distance agreement %v", r.LMDistAgreement)
	}
	// Tables agree exactly; materialized routes differ only through
	// equal-length shortest-path tie-breaks interacting with backtrack
	// trimming — the same effect behind the paper's ~0.9% delta.
	if r.StretchDeltaPct > 5 {
		t.Errorf("stretch delta %v%% too large", r.StretchDeltaPct)
	}
}

func TestEstimateErrorSmall(t *testing.T) {
	r := Config{}.EstimateError(512, 12, 0.4, 120)
	if r.NodePairs == 0 {
		t.Fatal("no (node,group) pairs checked")
	}
	if r.MeanStretch < 1 || r.BaseStretch < 1 {
		t.Fatal("stretch below 1")
	}
	// The paper: tiny impact at 40% error.
	if r.DeltaPct > 25 {
		t.Errorf("stretch delta %v%% implausibly large for 40%% error", r.DeltaPct)
	}
}

func TestFingerExperimentSmall(t *testing.T) {
	r := FingerExperiment(1024, 13)
	if r.Mean3 >= r.Mean1 {
		t.Errorf("3 fingers should cut mean travel: %v vs %v", r.Mean3, r.Mean1)
	}
	if r.Msgs3 <= r.Msgs1 {
		t.Errorf("3 fingers should cost more messages")
	}
}

func TestResolveImbalanceSmall(t *testing.T) {
	r := ResolveImbalance(2048, 14)
	if r.Imbalance8 >= r.Imbalance1 {
		t.Errorf("8 hash functions should cut imbalance: %v vs %v", r.Imbalance8, r.Imbalance1)
	}
}

func TestLandmarkStrategiesSmall(t *testing.T) {
	r := Config{}.LandmarkStrategies(TopoASLike, 512, 15, 100)
	if len(r.Rows) != 3 {
		t.Fatal("want 3 strategies")
	}
	for _, row := range r.Rows {
		if row.LaterStretch > 3+1e-6 || row.LaterStretch < 1 {
			t.Errorf("%s later stretch %v out of range", row.Name, row.LaterStretch)
		}
		if row.MaxState <= 0 {
			t.Errorf("%s max state missing", row.Name)
		}
	}
	// High-degree landmarks on a power-law graph sit near everything:
	// addresses should be no longer than under random selection.
	random, high := r.Rows[0], r.Rows[1]
	if high.MeanAddrBytes > random.MeanAddrBytes*1.2 {
		t.Errorf("high-degree landmarks should not lengthen addresses: %v vs %v",
			high.MeanAddrBytes, random.MeanAddrBytes)
	}
	// Low-degree (adversarial) landmarks must be visibly worse than
	// high-degree on at least one axis.
	low := r.Rows[2]
	if low.MeanAddrBytes <= high.MeanAddrBytes && low.FirstStretch <= high.FirstStretch {
		t.Errorf("adversarial landmarks should cost something: %+v vs %+v", low, high)
	}
	if !strings.Contains(r.Format(), "high-degree") {
		t.Error("format incomplete")
	}
}

func TestTradeoffSweepSmall(t *testing.T) {
	r := TradeoffSweep(TopoGnm, 512, []int{1, 2, 3}, 16, 100)
	if len(r.Points) != 3 {
		t.Fatal("want 3 points")
	}
	for i, p := range r.Points {
		if p.MaxStretch > float64(p.StretchBound)+1e-9 {
			t.Errorf("k=%d stretch %v exceeds bound %d", p.K, p.MaxStretch, p.StretchBound)
		}
		if i > 0 && p.MeanState >= r.Points[i-1].MeanState {
			t.Errorf("state should shrink with k: %+v", r.Points)
		}
	}
	if r.Points[0].MeanStretch != 1 {
		t.Errorf("k=1 must route on shortest paths, mean %v", r.Points[0].MeanStretch)
	}
	if !strings.Contains(r.Format(), "tradeoff") {
		t.Error("format incomplete")
	}
}

func TestChurnCostSmall(t *testing.T) {
	r, err := ChurnCost(128, 17, 3)
	if err != nil {
		t.Fatalf("ChurnCost: %v", err)
	}
	if r.Initial <= 0 {
		t.Fatal("no initial messages")
	}
	if r.Triggered <= 0 {
		t.Fatal("failure re-convergence should cost messages")
	}
	// Triggered re-convergence after one failure must be a small fraction
	// of initial convergence; the refresh round is a full-table flood and
	// lands within a small multiple of initial.
	if r.Triggered >= r.Initial/4 {
		t.Errorf("triggered cost %v should be well below initial %v", r.Triggered, r.Initial)
	}
	if r.Refresh > 4*r.Initial {
		t.Errorf("refresh round %v implausibly above initial %v", r.Refresh, r.Initial)
	}
	if !strings.Contains(r.Format(), "Churn cost") {
		t.Error("format incomplete")
	}
}

func TestBuildTopoKinds(t *testing.T) {
	for _, k := range []TopoKind{TopoGnm, TopoGeometric, TopoASLike, TopoRouterLike} {
		g := BuildTopo(k, 300, 1)
		if g.N() != 300 || !g.Connected() {
			t.Errorf("topology %s broken", k)
		}
	}
}

func TestBuildTopoUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildTopo("nope", 10, 1)
}

// TestExperimentOnOneNodeFails: fig3 on a one-node map has no pair to
// sample. Its entry must panic, which discosim reports as a failed
// experiment, and not loop looking for two distinct endpoints.
func TestExperimentOnOneNodeFails(t *testing.T) {
	i := slices.IndexFunc(Experiments, func(e Experiment) bool { return e.Name == "fig3" })
	if i < 0 {
		t.Fatal("no fig3 entry")
	}
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		Experiments[i].Run(Options{N: 1, Pairs: 1})
	}()
	select {
	case r := <-panicked:
		if msg := fmt.Sprint(r); !strings.Contains(msg, "distinct endpoints") {
			t.Fatalf("fig3 at n=1: panic %q, want SamplePairs' refusal", msg)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fig3 at n=1 still running after 30 s")
	}
}
