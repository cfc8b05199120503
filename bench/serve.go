package main

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"disco/internal/dynamics"
	"disco/internal/forward"
	"disco/internal/graph"
	"disco/internal/serve"
	"disco/internal/snapshot"
)

// Route cases, classified from outside the router: the destination is in
// the source's vicinity (or, for a later packet, the source in the
// destination's), the destination is a landmark, or the packet takes the
// landmark leg.
const (
	caseVic = iota
	caseLM
	caseFar
	numCases
)

var caseNames = [numCases]string{"vic", "lm", "far"}

func classify(snap *snapshot.Snapshot, isLM []bool, s, t graph.NodeID, later bool) int {
	switch {
	case s == t:
		return caseVic
	case isLM[t]:
		return caseLM
	case snap.VicinityContains(s, t), later && snap.VicinityContains(t, s):
		return caseVic
	}
	return caseFar
}

// drawQuery draws one uniform query: a pair and its packet phase.
func drawQuery(rng *rand.Rand, n int) (s, t graph.NodeID, later bool) {
	return graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), rng.Intn(2) == 1
}

// slice is one equal part of the query window.
type slice struct {
	lat     hist
	queries int64
}

// querier is the one closed-loop client of the serve window. It keeps one
// histogram per slice of the window, so that the run can report the median
// slice: a burst of interference from the box then moves a slice or two,
// not the result.
type querier struct {
	slices      []slice        // the window's slices, then one for what ran over
	byCase      [numCases]hist // traced runs only
	queries     int64
	undelivered int64
}

// run issues uniform queries against the plane until done is set, timing
// every Probe. A traced run also classifies each query into its route
// case, on the snapshot the publisher last announced in head, and keeps
// one full span per 1024th query.
func (q *querier) run(c config, plane *serve.Plane, isLM []bool, head *atomic.Pointer[snapshot.Snapshot], tr *tracer, start time.Time, done *atomic.Bool) {
	rng := stream(c.seed, streamQuery)
	sliceLen := c.window / time.Duration(c.slices)
	q.slices = make([]slice, c.slices+1)
	for !done.Load() {
		s, t, later := drawQuery(rng, c.n)
		id := -1
		if c.traced && q.queries%1024 == 0 {
			id = tr.begin("serve.Plane.Probe", tidQuerier, -1, int(q.queries))
		}
		t0 := time.Now()
		res := plane.Probe(s, t, later)
		d := time.Since(t0)
		tr.end(id)
		sl := &q.slices[min(int(t0.Sub(start)/sliceLen), c.slices)]
		sl.lat.add(d)
		sl.queries++
		if c.traced {
			q.byCase[classify(head.Load(), isLM, s, t, later)].add(d)
		}
		if !res.OK {
			q.undelivered++
		}
		q.queries++
	}
}

// report sets the query-side metrics: the median over the window's slices
// of each slice's rate, p50, p90 and p99. The end-to-end tail is p90: p99
// moved 26-29% between seeds on serve-walk, more than any bound may be.
func (q *querier) report(c config, r *report) {
	sliceLen := c.window / time.Duration(c.slices)
	var qps, p50, p90, p99 []float64
	for i := range q.slices[:c.slices] {
		sl := &q.slices[i]
		qps = append(qps, float64(sl.queries)/sliceLen.Seconds())
		p50 = append(p50, sl.lat.quantile(0.50)/1e3)
		p90 = append(p90, sl.lat.quantile(0.90)/1e3)
		p99 = append(p99, sl.lat.quantile(0.99)/1e3)
	}
	r.setN("ops_per_s", quantileOf(qps, 0.5), int(q.queries))
	r.setN("op_p50_us", quantileOf(p50, 0.5), int(q.queries))
	r.setN("op_tail_us", quantileOf(p90, 0.5), int(q.queries))
	r.setN("serve.probe_p99_us", quantileOf(p99, 0.5), int(q.queries))
}

// runServe is serve-tables (tables=true) and serve-walk: one querier
// probes a serve.Plane for the window while one publisher replays the
// storm open loop, repairing and publishing an epoch per event.
func runServe(c config, w *world, tr *tracer, r *report) {
	tables := c.workload == serveTables
	storm, bridges := genStorm(w.g, c.seed, c.events+drainEvents)
	r.set("graph.bridges_ms", float64(bridges)/1e6)

	nd := w.disco.ND
	tb := w.tables
	var plane *serve.Plane
	if tables {
		base := tb
		plane = serve.NewPlane(w.snap, func(*snapshot.Snapshot) dynamics.Router { return base.NewRouter() })
	} else {
		plane = serve.NewPlane(w.snap, func(rep *snapshot.Snapshot) dynamics.Router { return nd.ForkRepaired(rep) })
	}
	tl := dynamics.NewTimeline(w.snap)

	var head atomic.Pointer[snapshot.Snapshot]
	head.Store(w.snap)
	compiledAfterDerive, lazyRecompiles := 0, 0
	compiled := func(t *forward.Tables) int {
		nodes, rows := t.CompiledShards()
		return nodes + rows
	}
	// apply repairs the chain for one event and publishes the new head as
	// an epoch, on serve-tables with tables derived from the previous
	// epoch's. It returns the repair's stats (nil when the event failed)
	// and the time spent in each of the three calls.
	apply := func(i int, ev stormEvent) (st *snapshot.RepairStats, repair, derive, publish time.Duration) {
		root := tr.begin("bench.event", tidMain, -1, i)
		defer tr.end(root)
		r.attempted++
		var err error
		repair = tr.timed(eventSpanName(ev), tidMain, root, i, func() { st, err = applyEvent(tl, ev) })
		if err != nil {
			r.fail("event %d: %v", i, err)
			return nil, repair, 0, 0
		}
		snap := tl.Snapshot()
		fork, forkName := plane.Publish, "serve.Plane.Publish"
		if tables {
			forkName = "serve.Plane.PublishWith"
			if c.traced {
				lazyRecompiles += compiled(tb) - compiledAfterDerive
			}
			derive = tr.timed("forward.Tables.Derive", tidMain, root, i, func() { tb = tb.Derive(snap, st) })
			if c.traced {
				compiledAfterDerive = compiled(tb)
			}
			cur := tb
			fork = func(snap *snapshot.Snapshot) (uint64, error) {
				return plane.PublishWith(snap, func(*snapshot.Snapshot) dynamics.Router { return cur.NewRouter() })
			}
		}
		publish = tr.timed(forkName, tidMain, root, i, func() { _, err = fork(snap) })
		if err != nil {
			r.fail("event %d: publish: %v", i, err)
		}
		head.Store(snap)
		return st, repair, derive, publish
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	q := &querier{}
	var lags, deriveUs, publishUs []float64
	var totals repairTotals
	var lateMax time.Duration

	mem0 := readMemStats()
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		q.run(c, plane, w.env.IsLM, &head, tr, start, &done)
	}()
	// The publisher: event i is due at a fixed instant whatever happened to
	// the events before it, and its lag runs from that instant.
	for i, ev := range storm[:c.events] {
		due := start.Add(time.Duration(i)*c.interval + c.interval/2)
		time.Sleep(time.Until(due))
		if late := time.Since(due); late > lateMax {
			lateMax = late
		}
		st, repair, derive, publish := apply(i, ev)
		if st == nil {
			continue
		}
		lags = append(lags, float64(time.Since(due))/1e6)
		totals.add(ev, st, tl.Snapshot(), repair)
		if tables {
			deriveUs = append(deriveUs, float64(derive)/1e3)
		}
		publishUs = append(publishUs, float64(publish)/1e3)
	}
	time.Sleep(time.Until(start.Add(c.window)))
	done.Store(true)
	wg.Wait()
	window := plane.Metrics()
	if c.traced {
		reportRuntime(r, mem0, c.events)
	}

	r.attempted += q.queries
	if q.undelivered > 0 {
		r.failN(q.undelivered, "%d of %d queries undelivered", q.undelivered, q.queries)
	}
	q.report(c, r)
	r.setN("serve.publish_lag_ms_p50", quantileOf(lags, 0.50), len(lags))
	r.setN("serve.publish_lag_ms_p80", quantileOf(lags, 0.80), len(lags))
	r.setN("forward.derive_us", quantileOf(deriveUs, 0.5), len(deriveUs))
	r.setN("serve.publish_us", quantileOf(publishUs, 0.5), len(publishUs))
	r.set("gen.event_late_ms_max", float64(lateMax)/1e6)
	totals.report(r, tl.Snapshot())
	if tables && c.traced {
		lazyRecompiles += compiled(tb) - compiledAfterDerive
		r.set("forward.lazy_recompiles_per_event", float64(lazyRecompiles)/float64(c.events))
	}
	if c.traced {
		var all uint64
		for k := range q.byCase {
			all += q.byCase[k].n
		}
		for k, name := range caseNames {
			r.set("route_mix."+name+"_share", float64(q.byCase[k].n)/float64(all))
		}
	}

	drainToFold(storm[c.events:], func(i int, ev stormEvent) *snapshot.RepairStats {
		st, _, _, _ := apply(c.events+i, ev)
		return st
	})
	final := tl.Snapshot()
	r.set("retained_mb", retainedMB()) // chain head, tables and plane are used below

	if c.traced {
		serveLoops(c, w, plane, tb, final, r)
	}

	t0 := time.Now()
	verifyServe(c, w, plane, tb, final, r)
	plane.Close()
	m := plane.Metrics()
	r.attempted++
	if m.Retired != m.Published {
		r.fail("plane retired %d of %d published epochs after Close", m.Retired, m.Published)
	}
	r.set("verify.s", time.Since(t0).Seconds())
	r.set("serve.epochs_published", float64(m.Published))
	r.set("serve.epochs_retired", float64(m.Retired))
	r.set("serve.stale_share", float64(window.Stale)/float64(window.Queries))
}

// verifyServe checks the final epoch, untimed, over seeded pairs and both
// packet phases: the plane's route is a valid path on the failed graph,
// the tables route and the NDDisco walk route are byte-identical to it,
// and later packets keep stretch <= 3. The same pairs give the stretch
// means.
func verifyServe(c config, w *world, plane *serve.Plane, tb *forward.Tables, final *snapshot.Snapshot, r *report) {
	g := final.Graph()
	walk := w.disco.ND.ForkRepaired(final)
	if tb == nil { // serve-walk: tables compiled on demand
		tb = forward.Compile(final, w.env.Landmarks, w.env.LMOf)
	}
	tab := tb.NewRouter()
	sp := graph.NewSSSP(g)
	var first, later float64
	pairs := samplePairs(c.seed, streamVerify, c.n, c.verify)
	for _, p := range pairs {
		s, t := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		sp.Run(s)
		short := sp.Dist(t)
		for _, isLater := range []bool{false, true} {
			r.attempted++
			res := plane.Route(s, t, isLater)
			var wr, tbr []graph.NodeID
			var wok, tok bool
			if isLater {
				wr, wok = walk.RepairedLaterRoute(s, t)
				tbr, tok = tab.RepairedLaterRoute(s, t)
			} else {
				wr, wok = walk.RepairedFirstRoute(s, t)
				tbr, tok = tab.RepairedFirstRoute(s, t)
			}
			switch {
			case !res.OK || !validPath(g, res.Route, s, t):
				r.fail("verify %d->%d later=%v: plane route %v is not a path on the failed graph", s, t, isLater, res.Route)
				continue
			case !wok || !tok || !slices.Equal(res.Route, wr) || !slices.Equal(res.Route, tbr):
				r.fail("verify %d->%d later=%v: plane %v, walk %v, tables %v differ", s, t, isLater, res.Route, wr, tbr)
				continue
			}
			stretch := g.PathLength(res.Route) / short
			if isLater {
				later += stretch
				if stretch > maxLaterStretch {
					r.fail("verify %d->%d: later stretch %.3f > 3", s, t, stretch)
				}
			} else {
				first += stretch
			}
		}
	}
	r.setN("stretch_first_mean", first/float64(len(pairs)), len(pairs))
	r.setN("stretch_later_mean", later/float64(len(pairs)), len(pairs))
}

// nullRouter answers every query at once, so a plane over it costs only
// the plane: epoch pin, pool get/put, counters, release.
type nullRouter struct{}

func (nullRouter) RepairedFirstRoute(s, t graph.NodeID) ([]graph.NodeID, bool) { return nil, true }
func (nullRouter) RepairedLaterRoute(s, t graph.NodeID) ([]graph.NodeID, bool) { return nil, true }
func (nullRouter) AppendRoute(dst []graph.NodeID, s, t graph.NodeID, later bool) ([]graph.NodeID, bool) {
	return dst, true
}

type query struct {
	s, t  graph.NodeID
	later bool
}

// mallocs returns the process's cumulative heap object count.
func mallocs() uint64 { return readMemStats().Mallocs }

// serveLoops runs the traced run's post-window loops on the final epoch,
// with no publisher beside them, all over one query stream: the plane's
// Probe, a plane over a router that does nothing, the bare router over the
// whole stream and over its parts by packet phase and by route case, the
// route-case classification a traced query pays, and the querier's own
// loop (RNG, clock, histogram). No loop has a clock inside it. The box's
// speed drifts by a fifth within a second, so the loops run interleaved,
// five rounds, and each reports its median round.
func serveLoops(c config, w *world, plane *serve.Plane, tb *forward.Tables, final *snapshot.Snapshot, r *report) {
	rng := stream(c.seed, streamMicro)
	all := make([]query, c.micro)
	for i := range all {
		all[i].s, all[i].t, all[i].later = drawQuery(rng, c.n)
	}
	part := func(keep func(q query) bool) []query {
		var qs []query
		for _, q := range all {
			if keep(q) {
				qs = append(qs, q)
			}
		}
		return qs
	}
	caseOf := func(q query) int { return classify(final, w.env.IsLM, q.s, q.t, q.later) }

	var route func(q query)
	prefix := "core"
	if tb != nil {
		prefix = "forward"
		ar := tb.NewRouter()
		var buf []graph.NodeID
		route = func(q query) { buf, _ = ar.AppendRoute(buf[:0], q.s, q.t, q.later) }
	} else {
		nd := w.disco.ND.ForkRepaired(final)
		route = func(q query) {
			if q.later {
				nd.RepairedLaterRoute(q.s, q.t)
			} else {
				nd.RepairedFirstRoute(q.s, q.t)
			}
		}
	}
	null := serve.NewPlane(final, func(*snapshot.Snapshot) dynamics.Router { return nullRouter{} })
	defer null.Close()
	lrng := stream(c.seed, streamQuery)
	var h hist
	var sink graph.NodeID

	loops := []struct {
		name string
		qs   []query
		fn   func(q query)
	}{
		{"probe", all, func(q query) { plane.Probe(q.s, q.t, q.later) }},
		{"null", all, func(q query) { null.Probe(q.s, q.t, q.later) }},
		{"bare", all, route},
		{"first", part(func(q query) bool { return !q.later }), route},
		{"later", part(func(q query) bool { return q.later }), route},
		{"vic", part(func(q query) bool { return caseOf(q) == caseVic }), route},
		{"lm", part(func(q query) bool { return caseOf(q) == caseLM }), route},
		{"far", part(func(q query) bool { return caseOf(q) == caseFar }), route},
		{"classify", all, func(q query) { sink += graph.NodeID(caseOf(q)) }},
		// The untraced querier's loop without its Probe.
		{"loop", all, func(query) {
			s, t, _ := drawQuery(lrng, c.n)
			t0 := time.Now()
			sink += s + t
			h.add(time.Since(t0))
		}},
	}
	const rounds = 5
	ns := map[string][]float64{}
	count := map[string]int{}
	var allocs float64
	for round := -1; round < rounds; round++ { // round -1 warms: compiles dropped shards, grows scratch
		for _, l := range loops {
			before := uint64(0)
			if l.name == "bare" && round == 0 {
				before = mallocs()
			}
			t0 := time.Now()
			for _, q := range l.qs {
				l.fn(q)
			}
			d := time.Since(t0)
			if l.name == "bare" && round == 0 {
				allocs = float64(mallocs()-before) / float64(len(l.qs))
			}
			if round >= 0 && len(l.qs) > 0 {
				ns[l.name] = append(ns[l.name], float64(d)/float64(len(l.qs)))
				count[l.name] = len(l.qs)
			}
		}
	}
	if sink == 0 && h.n == 0 {
		panic("bench: unreachable, keeps the loops' results used")
	}
	med := func(name string) float64 { return quantileOf(ns[name], 0.5) }

	r.setN("serve.probe_ns", med("probe"), count["probe"])
	r.setN("serve.null_probe_ns", med("null"), count["null"])
	r.set("serve.plane_overhead_ns", med("probe")-med("bare"))
	r.set("serve.overhead_residual_ns", med("probe")-med("bare")-med("null"))
	r.setN(prefix+".route_first_ns", med("first"), count["first"])
	r.setN(prefix+".route_later_ns", med("later"), count["later"])
	for _, name := range caseNames {
		r.setN(prefix+".route_ns."+name, med(name), count[name])
	}
	r.set(prefix+".allocs_per_route", allocs)
	r.setN("bench.loop_overhead_ns", med("loop"), count["loop"])
	// What a traced query adds to the querier's loop: the classification.
	r.set("trace.overhead_share", med("classify")/(med("probe")+med("loop")))
}
