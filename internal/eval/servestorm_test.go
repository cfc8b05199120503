package eval

import (
	"strings"
	"testing"
)

// TestServeStormDeterministicEvents: the per-epoch event log must be
// byte-identical across runs and independent of the querier count — the
// invariance half of the epoch/staleness contract (concurrency picks
// which epoch answers a live query, never what an epoch contains).
func TestServeStormDeterministicEvents(t *testing.T) {
	a, err := Config{}.ServeStorm(TopoGnm, 128, 23, 40, 8, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Config{}.ServeStorm(TopoGnm, 128, 23, 40, 8, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.FormatEvents() != b.FormatEvents() {
		t.Errorf("event log differs between 1 and 4 queriers:\n--- 1 ---\n%s--- 4 ---\n%s",
			a.FormatEvents(), b.FormatEvents())
	}
}

// TestServeStormReplaysChurnTimeline: for one (seed, n, kind) the storm's
// event sequence (kind, links, down, blast radius) must be identical to
// -exp churn-timeline's — serve-storm replays it, by contract.
func TestServeStormReplaysChurnTimeline(t *testing.T) {
	ct, err := Config{}.ChurnTimeline(TopoGnm, 128, 23, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Config{}.ServeStorm(TopoGnm, 128, 23, 40, 8, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Events) != len(ss.Events) {
		t.Fatalf("event counts differ: churn-timeline %d, serve-storm %d", len(ct.Events), len(ss.Events))
	}
	for i := range ct.Events {
		c, s := ct.Events[i], ss.Events[i]
		if c.Kind != s.Kind || c.Links != s.Links || c.DownAfter != s.DownAfter ||
			c.ShardsPct != s.ShardsPct || c.Pairs != s.Pairs || c.Connected != s.Connected || c.Legs != s.Legs {
			t.Errorf("event %d differs: churn-timeline %+v vs serve-storm %+v", i, c, s)
		}
		if s.Epoch != uint64(i+1) {
			t.Errorf("event %d published as epoch %d, want %d", i, s.Epoch, i+1)
		}
	}
}

// TestServeStormLoadSanity: the measured side must account consistently —
// every started query completes (zero failed reads), every epoch is
// counted, and the latency percentiles are ordered.
func TestServeStormLoadSanity(t *testing.T) {
	r, err := Config{}.ServeStorm(TopoGnm, 128, 23, 40, 8, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	l := r.Load
	if l.Published != uint64(len(r.Events))+1 {
		t.Errorf("published %d epochs, want %d (base + one per event)", l.Published, len(r.Events)+1)
	}
	if l.Delivered > l.Queries || l.Stale > l.Queries {
		t.Errorf("impossible accounting: %+v", l)
	}
	if l.Queries > 0 && l.P99us < l.P50us {
		t.Errorf("p99 (%v) < p50 (%v)", l.P99us, l.P50us)
	}
	if !strings.Contains(r.Format(), "measured:") {
		t.Error("Format must include the measured line")
	}
	if strings.Contains(r.FormatEvents(), "measured:") {
		t.Error("FormatEvents must not include measured quantities")
	}
}

// TestServeStormTablesEventLog: the forwarding-table plane must leave the
// deterministic event log untouched — the probe routes through the
// protocol legs, never the plane — and must report itself on the measured
// line. This is the end-to-end half of the table/fork equivalence story
// (internal/forward pins per-route byte identity).
func TestServeStormTablesEventLog(t *testing.T) {
	fw, err := Config{}.ServeStorm(TopoGnm, 128, 23, 40, 8, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := Config{}.ServeStorm(TopoGnm, 128, 23, 40, 8, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if fw.FormatEvents() != tb.FormatEvents() {
		t.Errorf("event log differs between plane kinds:\n--- fork-and-walk ---\n%s--- tables ---\n%s",
			fw.FormatEvents(), tb.FormatEvents())
	}
	if tb.Load.Plane != "tables" || fw.Load.Plane != "fork-and-walk" {
		t.Errorf("plane kinds misreported: %q / %q", fw.Load.Plane, tb.Load.Plane)
	}
	if !strings.Contains(tb.Format(), "on the tables plane") {
		t.Errorf("measured line must name the plane kind:\n%s", tb.Format())
	}
}

// TestServeStormFormatZeroQueries: a storm no query completes in (tiny
// machines, instant storms) must print 0%/0 qps, never NaN — the
// divide-by-query-count guards in Format.
func TestServeStormFormatZeroQueries(t *testing.T) {
	r := &ServeStormResult{Kind: TopoGnm, N: 16, PairsN: 1,
		Load: ServeLoad{Queriers: 4, Plane: "tables"}}
	out := r.Format()
	if strings.Contains(out, "NaN") || strings.Contains(out, "nan") {
		t.Errorf("zero-query Format prints NaN:\n%s", out)
	}
	if !strings.Contains(out, "0 queries in 0.00s (0 qps)") {
		t.Errorf("zero-query measured line malformed:\n%s", out)
	}
	if !strings.Contains(out, "0.00% delivered, 0.00% stale") {
		t.Errorf("zero-query percentages malformed:\n%s", out)
	}
}

func TestServeStormValidatesInputs(t *testing.T) {
	if _, err := (Config{}).ServeStorm(TopoGnm, 4, 1, 40, 4, 1, false); err == nil {
		t.Error("n below the G(n,m) floor must error")
	}
	if _, err := (Config{}).ServeStorm(TopoGnm, 128, 1, 0, 4, 1, false); err == nil {
		t.Error("pairs < 1 must error")
	}
}
