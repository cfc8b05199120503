package eval

import (
	"fmt"
	"math/rand"
	"strings"

	"disco/internal/dynamics"
	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/parallel"
	"disco/internal/snapshot"
	"disco/internal/static"
	"disco/internal/vicinity"
)

// The churn-timeline experiment: continuous dynamics at paper scale. The
// event-driven simulator prices the control messages of churn exactly, but
// only up to n≈1024 (the paper's own Fig. 8 ceiling); the snapshot chain
// repairs route state at blast-radius cost at any size but counts shards,
// not messages. This file joins the two: CalibrateMessageModel measures,
// on an n ≤ 1024 event-driven run, how many triggered messages one
// recomputed vicinity entry and one forest-row node cost, and ChurnTimeline
// then drives a deterministic interleaved fail/recover timeline over the
// snapshot chain — at router-level 192,244 nodes under -full — pricing
// every event's re-convergence with the calibrated model and measuring
// per-event delivery through the same dynamics.Router legs the failures
// family routes on.

// TimelineEventRow is one fail/recover event of the churn timeline.
type TimelineEventRow struct {
	Step      int
	Kind      string // "fail" or "recover"
	Links     int    // links failed/restored by this event
	DownAfter int    // links down once the event is applied

	VicRebuilt      int // vicinity windows recomputed
	RowsRebuilt     int // forest rows re-settled
	VicEntriesMoved int // vicinity entries that actually changed
	RowParentsMoved int // forest parent fields that actually changed
	ShardsPct       float64
	MsgPerNode      float64 // modeled triggered messages per node

	legTally
}

// ChurnTimelineResult is the full timeline report.
type ChurnTimelineResult struct {
	Kind    TopoKind
	N       int
	PairsN  int
	Model   dynamics.MessageModel
	CalInit float64 // initial convergence msgs/node at calibration scale
	Events  []TimelineEventRow
}

// Format renders the timeline: per event the blast radius (windows, rows,
// patches), the modeled message cost, and per-leg delivery over connected
// pairs — the observable that prices partitions.
func (r *ChurnTimelineResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Churn timeline — %s, n=%d (%d pairs/event; blast-radius message model: %s)\n",
		r.Kind, r.N, r.PairsN, r.Model)
	fmt.Fprintf(&b, "  %3s %-7s %5s %4s |%6s %5s %7s %7s %7s %9s |%6s %7s %6s %6s %6s %6s\n",
		"ev", "kind", "links", "down",
		"vic", "rows", "Δvic", "Δpar", "shards%", "msg/node",
		"conn%", "dlv:"+legNames[0], legNames[1], legNames[2], legNames[3], legNames[4])
	total := 0.0
	for _, ev := range r.Events {
		dlv := ev.dlvPct
		fmt.Fprintf(&b, "  %3d %-7s %5d %4d |%6d %5d %7d %7d %7.2f %9.1f |%6.1f %7.1f %6.1f %6.1f %6.1f %6.1f\n",
			ev.Step, ev.Kind, ev.Links, ev.DownAfter,
			ev.VicRebuilt, ev.RowsRebuilt, ev.VicEntriesMoved, ev.RowParentsMoved, ev.ShardsPct, ev.MsgPerNode,
			ev.connPct(), dlv(0), dlv(1), dlv(2), dlv(3), dlv(4))
		total += ev.MsgPerNode
	}
	fmt.Fprintf(&b, "  total modeled re-convergence over %d events: %.1f messages/node (initial convergence at calibration scale: %.0f)\n",
		len(r.Events), total, r.CalInit)
	return b.String()
}

// CalibrateMessageModel fits the blast-radius message model against the
// event-driven protocol at size calN (≤ 1024, where the full simulation is
// affordable). ChurnCost fails single links on the converged path-vector
// instance and measures each failure's triggered re-convergence exactly;
// the identical failures applied to the snapshot give each failure's
// changed-entry blast radius. A least-squares fit of
//
//	triggered_i ≈ PerVicEntry·(changed vic entries)_i + PerRowNode·(changed row parents)_i
//
// over the trials identifies both coefficients (failures that miss every
// landmark tree pin the vicinity term; tree hits add the row term); if the
// trials are degenerate (singular normal equations or a negative
// coefficient) the fit falls back to one shared proportionality constant.
// Deterministic at any worker count. Returns the model and the initial
// convergence cost (messages/node) for context.
func CalibrateMessageModel(calN int, seed int64, trials int) (dynamics.MessageModel, float64, error) {
	g := BuildTopo(TopoGnm, calN, seed)
	env := static.NewEnv(g, seed)
	k := vicinity.DefaultK(calN)

	// Measured triggered cost of real single-link failures, from the same
	// event-driven churn experiment the paper's §5 future work points at.
	cr, err := ChurnCostOn(g, seed, trials)
	if err != nil {
		return dynamics.MessageModel{}, 0, fmt.Errorf("eval: calibration churn: %w", err)
	}

	// Blast radius of the identical failures on the snapshot side.
	snap, err := snapshot.Build(g, k, env.Landmarks)
	if err != nil {
		return dynamics.MessageModel{}, 0, fmt.Errorf("eval: calibration snapshot: %w", err)
	}
	type blast struct {
		vic, row float64
		err      error
	}
	blasts := parallel.Map(len(cr.Failed), func(i int) blast {
		rep, err := snap.ApplyFailures([]graph.EdgeKey{cr.Failed[i]})
		if err != nil {
			return blast{err: fmt.Errorf("eval: calibration repair of %v: %w", cr.Failed[i], err)}
		}
		st := rep.RepairStats()
		return blast{vic: float64(st.VicEntriesChanged), row: float64(st.RowNodesChanged)}
	})
	for _, bl := range blasts {
		if bl.err != nil {
			return dynamics.MessageModel{}, 0, bl.err
		}
	}

	var svv, svr, srr, svt, srt, sv, sr, st float64
	for i, bl := range blasts {
		t := cr.TriggeredEach[i] * float64(calN) // per-trial total messages
		svv += bl.vic * bl.vic
		svr += bl.vic * bl.row
		srr += bl.row * bl.row
		svt += bl.vic * t
		srt += bl.row * t
		sv += bl.vic
		sr += bl.row
		st += t
	}
	model := dynamics.MessageModel{CalN: calN}
	if det := svv*srr - svr*svr; det > 1e-9*svv*srr {
		a := (srr*svt - svr*srt) / det
		b := (svv*srt - svr*svt) / det
		if a >= 0 && b >= 0 {
			model.PerVicEntry, model.PerRowNode = a, b
			return model, cr.Initial, nil
		}
	}
	if sv+sr > 0 { // degenerate trials: one shared constant
		c := st / (sv + sr)
		model.PerVicEntry, model.PerRowNode = c, c
	}
	return model, cr.Initial, nil
}

// churnTimelineEvents is the default timeline length.
const churnTimelineEvents = 16

// ChurnTimeline runs the continuous-churn experiment on one topology:
// build the converged environment and its shared snapshot once, calibrate
// the message model event-driven at min(n, 1024), then drive `events`
// interleaved fail/recover events through a dynamics.Timeline — each event
// repairs the snapshot chain at blast-radius cost, is priced by the model,
// and routes `pairs` sampled pairs over the repaired state through the
// shared dynamics legs. Event draws derive from the TaskSeed rule and pair
// routing fans out over the worker pool with in-order merges, so output is
// bit-identical at any -workers value. Partitions are allowed (links are
// drawn uniformly, bridges included): delivery ratio is the observable.
func (c Config) ChurnTimeline(kind TopoKind, n int, seed int64, pairs, events int) (*ChurnTimelineResult, error) {
	storm, err := c.newStorm("churn timeline", kind, n, seed, pairs, events)
	if err != nil {
		return nil, err
	}
	p, tl := storm.p, storm.tl

	calN := n
	if calN > 1024 {
		calN = 1024
	}
	model, calInit, err := CalibrateMessageModel(calN, seed, 8)
	if err != nil {
		return nil, err
	}

	res := &ChurnTimelineResult{Kind: kind, N: n, PairsN: pairs, Model: model, CalInit: calInit}
	for ev := 0; ev < storm.events; ev++ {
		row := TimelineEventRow{Step: ev}
		kindStr, nlinks, st, rng, err := stormStep(tl, storm.edges, seed, ev)
		if err != nil {
			return nil, err
		}
		row.Kind, row.Links = kindStr, nlinks
		row.DownAfter = tl.DownCount()
		row.VicRebuilt = st.VicRebuilt
		row.RowsRebuilt = st.RowsRebuilt
		row.VicEntriesMoved = st.VicEntriesChanged
		row.RowParentsMoved = st.RowNodesChanged
		row.ShardsPct = 100 * st.ShardsRebuilt()
		row.MsgPerNode = model.Messages(st) / float64(n)

		row.add(routeFailurePairs(p, tl.Snapshot(), metrics.SamplePairs(rng, n, pairs)))
		res.Events = append(res.Events, row)
	}
	return res, nil
}

// stormSetup is the converged state a fail/recover storm replays on.
type stormSetup struct {
	p    *Protocols
	snap *snapshot.Snapshot // the base the timeline starts from
	tl   *dynamics.Timeline
	// Base edge list indexed by EID for uniform draws; the timeline itself
	// is the single book of which links are down.
	edges  []graph.EdgeKey
	events int
}

// newStorm is the prologue ChurnTimeline and ServeStorm share: check the
// arguments (what names the experiment in errors; events <= 0 means the
// default length), build the converged environment and its shared
// snapshot once, and start a timeline on it.
func (c Config) newStorm(what string, kind TopoKind, n int, seed int64, pairs, events int) (*stormSetup, error) {
	// G(n,m) at average degree 8 needs m = 4n <= n(n-1)/2, i.e. n >= 9 —
	// below that topology.Gnm panics rather than returning the error this
	// API promises.
	if n < 9 {
		return nil, fmt.Errorf("eval: %s needs n >= 9 (G(n,m) at average degree 8), got %d", what, n)
	}
	if pairs < 1 {
		return nil, fmt.Errorf("eval: %s needs pairs >= 1, got %d", what, pairs)
	}
	if events <= 0 {
		events = churnTimelineEvents
	}
	p := c.BuildProtocols(kind, n, seed)
	snap := c.buildSnapshot(p.Env.G, p.Disco.ND.K, p.Env.Landmarks)
	return &stormSetup{p: p, snap: snap, tl: dynamics.NewTimeline(snap), edges: p.Env.G.EdgeList(), events: events}, nil
}

// stormStep draws and applies churn-timeline event `ev` on the timeline:
// with the down list empty or a fair coin, fail 1-2 uniform distinct alive
// links, otherwise recover 1-2 uniform distinct down links. It returns the
// event kind, the link count, the repair's blast-radius stats and the
// event's task RNG — positioned exactly after the draw, so the caller's
// pair sampling continues the same stream. This is the single definition
// of the deterministic storm sequence: ChurnTimeline prices it and
// ServeStorm replays it against a live query load, so for one (seed, n,
// kind) both experiments see the identical events.
func stormStep(tl *dynamics.Timeline, edges []graph.EdgeKey, seed int64, ev int) (kind string, links int, st *snapshot.RepairStats, rng *rand.Rand, err error) {
	rng = parallel.TaskRNG(seed*1000003+29, ev)
	if tl.DownCount() == 0 || rng.Intn(2) == 0 {
		// Failure event: 1-2 uniform distinct alive links.
		count := 1 + rng.Intn(2)
		drawn := drawAlive(rng, edges, tl, count)
		if st, err = tl.Fail(drawn); err != nil {
			return "", 0, nil, nil, fmt.Errorf("eval: timeline fail (event %d): %w", ev, err)
		}
		return "fail", len(drawn), st, rng, nil
	}
	// Recovery event: 1-2 uniform distinct down links.
	max := 2
	if down := tl.DownCount(); down < max {
		max = down
	}
	count := 1 + rng.Intn(max)
	drawn := drawDown(rng, tl.Down(), count)
	if st, err = tl.Recover(drawn); err != nil {
		return "", 0, nil, nil, fmt.Errorf("eval: timeline recover (event %d): %w", ev, err)
	}
	return "recover", len(drawn), st, rng, nil
}

// drawAlive draws `count` distinct currently-alive links uniformly from
// the base edge list by deterministic rejection.
func drawAlive(rng *rand.Rand, edges []graph.EdgeKey, tl *dynamics.Timeline, count int) []graph.EdgeKey {
	if avail := len(edges) - tl.DownCount(); count > avail {
		count = avail
	}
	picked := make(map[graph.EdgeKey]bool, count)
	out := make([]graph.EdgeKey, 0, count)
	for len(out) < count {
		e := edges[rng.Intn(len(edges))]
		if tl.IsDown(e) || picked[e] {
			continue
		}
		picked[e] = true
		out = append(out, e)
	}
	return out
}

// drawDown draws `count` distinct currently-down links uniformly from the
// sorted down list by deterministic rejection.
func drawDown(rng *rand.Rand, downList []graph.EdgeKey, count int) []graph.EdgeKey {
	picked := make(map[int]bool, count)
	out := make([]graph.EdgeKey, 0, count)
	for len(out) < count {
		i := rng.Intn(len(downList))
		if picked[i] {
			continue
		}
		picked[i] = true
		out = append(out, downList[i])
	}
	return out
}
