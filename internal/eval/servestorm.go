package eval

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"disco/internal/dynamics"
	"disco/internal/forward"
	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/serve"
	"disco/internal/snapshot"
)

// The serve-storm experiment: the serving mode under measurement. A
// serve.Plane answers route queries from a closed-loop concurrent query
// load while the repair loop replays the churn-timeline event sequence
// (the same stormStep draws, so for one (seed, n, kind) the events are
// identical to -exp churn-timeline's) through a dynamics.Timeline and
// publishes every post-event snapshot. Two kinds of output come out:
//
//   - The deterministic per-epoch event log (FormatEvents): event kind,
//     links, blast radius, and per-leg delivery of a fixed pair sample
//     routed ON the published epoch. Byte-identical across runs and at any
//     -workers / -queriers value (per-epoch routing is deterministic; see
//     the internal/serve package comment), so it is golden-diffable.
//   - Measured serving metrics (the "measured:" line): queries/sec, p50
//     and p99 query latency, delivered fraction, and staleness — the
//     fraction of queries answered on an epoch that had already been
//     superseded by completion time — plus the published epoch count.
//     Wall-clock quantities, excluded from goldens.
type ServeStormResult struct {
	Kind   TopoKind
	N      int
	PairsN int
	Events []ServeEventRow
	Load   ServeLoad
}

// ServeEventRow is one published epoch of the storm: the event that
// produced it and the deterministic probe routed on it.
type ServeEventRow struct {
	Step      int
	Kind      string // "fail" or "recover"
	Links     int
	DownAfter int
	Epoch     uint64 // plane epoch this event published as

	ShardsPct float64

	legTally
}

// ServeLoad is the measured (nondeterministic) side of the storm.
type ServeLoad struct {
	Queriers  int
	Plane     string // query-plane kind: "fork-and-walk" or "tables"
	Queries   uint64
	Delivered uint64
	Stale     uint64
	Secs      float64
	P50us     float64 // concurrent query latency percentiles, microseconds
	P99us     float64
	Published uint64
}

// FormatEvents renders the deterministic per-epoch event log — the part
// goldens and the serve-smoke CI job diff.
func (r *ServeStormResult) FormatEvents() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serve storm — %s, n=%d (%d events replaying the churn timeline; %d probe pairs/epoch)\n",
		r.Kind, r.N, len(r.Events), r.PairsN)
	fmt.Fprintf(&b, "  %3s %-7s %5s %4s %5s |%7s |%6s %7s %6s %6s %6s %6s\n",
		"ev", "kind", "links", "down", "epoch", "shards%",
		"conn%", "dlv:"+legNames[0], legNames[1], legNames[2], legNames[3], legNames[4])
	down := 0
	for _, ev := range r.Events {
		dlv := ev.dlvPct
		fmt.Fprintf(&b, "  %3d %-7s %5d %4d %5d |%7.2f |%6.1f %7.1f %6.1f %6.1f %6.1f %6.1f\n",
			ev.Step, ev.Kind, ev.Links, ev.DownAfter, ev.Epoch, ev.ShardsPct,
			ev.connPct(), dlv(0), dlv(1), dlv(2), dlv(3), dlv(4))
		down = ev.DownAfter
	}
	fmt.Fprintf(&b, "  storm: %d events published, %d links down at the end\n", len(r.Events), down)
	return b.String()
}

// Format renders the event log plus the measured serving metrics.
func (r *ServeStormResult) Format() string {
	l := r.Load
	qps := 0.0
	if l.Secs > 0 {
		qps = float64(l.Queries) / l.Secs
	}
	plane := l.Plane
	if plane == "" {
		plane = "fork-and-walk"
	}
	return r.FormatEvents() + fmt.Sprintf(
		"  measured: %d queriers on the %s plane, %d queries in %.2fs (%.0f qps), p50 %.1fµs p99 %.1fµs, %.2f%% delivered, %.2f%% stale, epochs %d published\n",
		l.Queriers, plane, l.Queries, l.Secs, qps, l.P50us, l.P99us, pct(l.Delivered, l.Queries), pct(l.Stale, l.Queries), l.Published)
}

// latHist is a lock-free-enough (single-writer) log-scale latency
// histogram: 64 power-of-two exponent rows × 16 sub-buckets gives ~6%
// value resolution at constant memory, so a -full-scale storm's query
// load never accumulates unbounded per-sample state.
type latHist struct {
	counts [64 * 16]uint64
	n      uint64
}

func (h *latHist) add(ns int64) {
	if ns < 1 {
		ns = 1
	}
	b := bits.Len64(uint64(ns)) - 1
	var sub uint64
	if b >= 4 {
		sub = (uint64(ns) >> (b - 4)) & 15
	} else {
		sub = (uint64(ns) << (4 - b)) & 15
	}
	h.counts[b*16+int(sub)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (bucket midpoint).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(q * float64(h.n))
	if target >= h.n {
		target = h.n - 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > target {
			b, sub := i/16, i%16
			return float64(uint64(1)<<b) * (1 + (float64(sub)+0.5)/16)
		}
	}
	return 0
}

// ServeStorm runs the serving mode: publish the base snapshot on a
// serve.Plane, hammer it with `queriers` closed-loop query goroutines
// (0 = GOMAXPROCS), and replay `events` churn-timeline events (0 = 16)
// through the repair loop, publishing every post-event snapshot and
// routing a deterministic probe of `pairs` sampled pairs on each. The
// event log is bit-identical at any -workers and -queriers value — and
// independent of the plane kind, since the probe routes through the
// protocol legs, not the plane; the measured load is wall-clock.
//
// tables selects the forwarding fast path: query forks are
// forward.Router views over compiled next-hop tables, derived
// per epoch by invalidating only the event's blast radius
// (RepairStats.VicTouched/RowsTouched) — instead of protocol forks
// walking the snapshot. The table plane serves NDDisco forwarding
// (address-carrying packets); the fork-and-walk plane serves Disco's
// resolution-inclusive first packets, so the two modes' measured
// delivered fractions can differ while the event log stays identical.
func (c Config) ServeStorm(kind TopoKind, n int, seed int64, pairs, events, queriers int, tables bool) (*ServeStormResult, error) {
	storm, err := c.newStorm("serve storm", kind, n, seed, pairs, events)
	if err != nil {
		return nil, err
	}
	p, snap, tl := storm.p, storm.snap, storm.tl
	if queriers <= 0 {
		queriers = runtime.GOMAXPROCS(0)
	}

	var plane *serve.Plane
	var tbls *forward.Tables
	planeKind := "fork-and-walk"
	if tables {
		planeKind = "tables"
		tbls = forward.Compile(snap, p.Env.Landmarks, p.Env.LMOf)
		tbls.Precompile() // pay the compile before the clock starts
		base := tbls
		plane = serve.NewPlane(snap, func(*snapshot.Snapshot) dynamics.Router {
			return base.NewRouter()
		})
	} else {
		plane = serve.NewPlane(snap, func(rep *snapshot.Snapshot) dynamics.Router {
			return p.Disco.ForkRepaired(rep)
		})
	}
	defer plane.Close()

	// The query load: closed-loop goroutines, each with its own RNG and
	// latency histogram, running until the storm completes. Their pair
	// draws are intentionally outside the deterministic TaskSeed universe —
	// they measure the serving plane, they never feed the event log.
	var done atomic.Bool
	hists := make([]*latHist, queriers)
	var wg sync.WaitGroup
	//disco:measured query-plane latency measurement; feeds the latency histogram, never the event log
	start := time.Now()
	for q := 0; q < queriers; q++ {
		hists[q] = &latHist{}
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed ^ (0x5e17e + int64(q)*0x9e37)))
			for !done.Load() {
				s, t := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
				later := rng.Intn(2) == 1
				//disco:measured per-probe serving latency sample
				t0 := time.Now()
				plane.Probe(s, t, later)
				//disco:measured per-probe serving latency sample
				hists[q].add(time.Since(t0).Nanoseconds())
			}
		}(q)
	}

	res := &ServeStormResult{Kind: kind, N: n, PairsN: pairs}
	for ev := 0; ev < storm.events; ev++ {
		kindStr, nlinks, st, rng, err := stormStep(tl, storm.edges, seed, ev)
		if err != nil {
			done.Store(true)
			wg.Wait()
			return nil, err
		}
		var epoch uint64
		if tables {
			// Derive the epoch's tables from the previous epoch's by
			// invalidating exactly this event's blast radius, and bind the
			// epoch's forks to them.
			tbls = tbls.Derive(tl.Snapshot(), st)
			cur := tbls
			epoch, err = plane.PublishWith(tl.Snapshot(), func(*snapshot.Snapshot) dynamics.Router {
				return cur.NewRouter()
			})
		} else {
			epoch, err = plane.Publish(tl.Snapshot())
		}
		if err != nil {
			done.Store(true)
			wg.Wait()
			return nil, err
		}
		row := ServeEventRow{
			Step: ev, Kind: kindStr, Links: nlinks, DownAfter: tl.DownCount(),
			Epoch: epoch, ShardsPct: 100 * st.ShardsRebuilt(),
		}
		// Deterministic probe on the just-published epoch, same sampling
		// stream as churn-timeline.
		row.add(routeFailurePairs(p, tl.Snapshot(), metrics.SamplePairs(rng, n, pairs)))
		res.Events = append(res.Events, row)
	}
	done.Store(true)
	wg.Wait()
	//disco:measured storm wall-clock for the throughput report
	secs := time.Since(start).Seconds()

	merged := &latHist{}
	for _, h := range hists {
		merged.merge(h)
	}
	m := plane.Metrics()
	res.Load = ServeLoad{
		Queriers: queriers, Plane: planeKind, Queries: m.Queries, Delivered: m.Delivered,
		Stale: m.Stale, Secs: secs,
		P50us: merged.quantile(0.50) / 1e3, P99us: merged.quantile(0.99) / 1e3,
		Published: m.Published,
	}
	return res, nil
}
