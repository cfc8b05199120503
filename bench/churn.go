package main

import (
	"bytes"
	"time"

	"disco/internal/dynamics"
	"disco/internal/graph"
	"disco/internal/snapshot"
)

// runChurn is churn-compact: the storm back to back (closed loop) through
// a dynamics.Timeline over the compact store, with no query load beside
// it. After each event a seeded probe routes first and later packets
// through a Disco fork of the new chain head, which is the only place the
// compact store's decode-per-read path is priced.
func runChurn(c config, w *world, tr *tracer, r *report) {
	storm, bridges := genStorm(w.g, c.seed, c.events+drainEvents)
	r.set("graph.bridges_ms", float64(bridges)/1e6)
	probes := samplePairs(c.seed, streamProbe, c.n, c.pairs*c.events)

	tl := dynamics.NewTimeline(w.snap)
	apply := func(i int, ev stormEvent, root int) (st *snapshot.RepairStats, repair time.Duration) {
		r.attempted++
		var err error
		repair = tr.timed(eventSpanName(ev), tidMain, root, i, func() { st, err = applyEvent(tl, ev) })
		if err != nil {
			r.fail("event %d: %v", i, err)
			return nil, repair
		}
		return st, repair
	}

	var totals repairTotals
	var routeLat hist
	var probeMallocs uint64

	mem0 := readMemStats()
	start := time.Now()
	for i, ev := range storm[:c.events] {
		root := tr.begin("bench.event", tidMain, -1, i)
		st, repair := apply(i, ev, root)
		if st == nil {
			tr.end(root)
			continue
		}
		totals.add(ev, st, tl.Snapshot(), repair)

		var before uint64
		if c.traced {
			before = mallocs()
		}
		undelivered := 0
		probe := tr.begin("core.Disco.probe", tidMain, root, i)
		fork := w.disco.ForkRepaired(tl.Snapshot())
		for _, p := range probes[i*c.pairs : (i+1)*c.pairs] {
			s, t := graph.NodeID(p.Src), graph.NodeID(p.Dst)
			t0 := time.Now()
			_, ok := fork.RepairedFirstRoute(s, t)
			t1 := time.Now()
			_, ok2 := fork.RepairedLaterRoute(s, t)
			routeLat.add(t1.Sub(t0))
			routeLat.add(time.Since(t1))
			if !ok {
				undelivered++
			}
			if !ok2 {
				undelivered++
			}
		}
		tr.end(probe)
		if c.traced {
			probeMallocs += mallocs() - before
		}
		tr.end(root)
		r.attempted += int64(2 * c.pairs)
		if undelivered > 0 {
			r.failN(int64(undelivered), "event %d: %d probe routes undelivered", i, undelivered)
		}
	}
	wall := time.Since(start)
	if c.traced {
		reportRuntime(r, mem0, c.events)
	}

	// The event is the operation counted; the probe route is the operation
	// timed. Event service times spread over a factor of twenty with the
	// links a storm happens to draw, and their percentiles do not hold a
	// bound across seeds, so they are per-layer metrics.
	r.setN("ops_per_s", float64(c.events)/wall.Seconds(), c.events)
	r.setN("op_p50_us", routeLat.quantile(0.50)/1e3, int(routeLat.n))
	r.setN("op_tail_us", routeLat.quantile(0.90)/1e3, int(routeLat.n))
	r.setN("core.compact_route_us", routeLat.meanNs()/1e3, int(routeLat.n))
	if c.traced {
		r.set("core.allocs_per_route", float64(probeMallocs)/float64(routeLat.n))
		r.set("trace.overhead_share", spanCost()*float64(3*c.events)/float64(wall)) // event, repair, probe
	}
	totals.report(r, tl.Snapshot())
	drainToFold(storm[c.events:], func(i int, ev stormEvent) *snapshot.RepairStats {
		st, _ := apply(c.events+i, ev, -1)
		return st
	})
	r.set("retained_mb", retainedMB()) // the chain head is used below

	t0 := time.Now()
	verifyChurn(c, w, tl, r)
	r.set("verify.s", time.Since(t0).Seconds())
}

// spanCost measures what recording one span costs, in nanoseconds.
func spanCost() float64 {
	const n = 100000
	tr := newTracer(true)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.begin("calibrate", tidMain, -1, i))
	}
	return float64(time.Since(t0)) / n
}

// verifyChurn checks, untimed, that the repaired chain head is
// byte-identical to a snapshot built from scratch on the failed graph, and
// routes seeded pairs on the head for the stretch means and the paper's
// bounds (first <= 7 unless resolution fell back, later <= 3).
func verifyChurn(c config, w *world, tl *dynamics.Timeline, r *report) {
	final := tl.Snapshot()
	edges := w.g.EdgeList()
	dead := make([]bool, len(edges))
	for _, key := range tl.Down() {
		dead[w.g.EdgeID(key.U, key.V)] = true
	}
	r.attempted++
	rebuilt, err := snapshot.BuildCompact(w.g.WithoutEdges(dead), w.disco.ND.K, w.env.Landmarks)
	switch {
	case err != nil:
		r.fail("verify: rebuild on the failed graph: %v", err)
	case !bytes.Equal(final.CanonicalBytes(), rebuilt.CanonicalBytes()):
		r.fail("verify: repaired chain head differs from a from-scratch BuildCompact")
	}

	g := final.Graph()
	fork := w.disco.ForkRepaired(final)
	sp := graph.NewSSSP(g)
	var first, later float64
	pairs := samplePairs(c.seed, streamVerify, c.n, c.verify)
	for _, p := range pairs {
		s, t := graph.NodeID(p.Src), graph.NodeID(p.Dst)
		sp.Run(s)
		short := sp.Dist(t)
		r.attempted += 2
		fb, _ := fork.Fallbacks()
		fr, ok := fork.RepairedFirstRoute(s, t)
		fb2, _ := fork.Fallbacks()
		if !ok || !validPath(g, fr, s, t) {
			r.fail("verify %d->%d: first route %v is not a path on the failed graph", s, t, fr)
		} else {
			st := g.PathLength(fr) / short
			first += st
			if st > maxFirstStretch && fb2 == fb {
				r.fail("verify %d->%d: first stretch %.3f > 7 without fallback", s, t, st)
			}
		}
		lr, ok := fork.RepairedLaterRoute(s, t)
		if !ok || !validPath(g, lr, s, t) {
			r.fail("verify %d->%d: later route %v is not a path on the failed graph", s, t, lr)
		} else {
			st := g.PathLength(lr) / short
			later += st
			if st > maxLaterStretch {
				r.fail("verify %d->%d: later stretch %.3f > 3", s, t, st)
			}
		}
	}
	r.setN("stretch_first_mean", first/float64(len(pairs)), len(pairs))
	r.setN("stretch_later_mean", later/float64(len(pairs)), len(pairs))
}
