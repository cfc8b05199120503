package main

import (
	"time"

	"disco/internal/core"
	"disco/internal/graph"
	"disco/internal/parallel"
	"disco/internal/pathtree"
	"disco/internal/s4"
)

// figSample is one swept pair: the stretches the figure plots, whether
// Disco's resolution fell back, and what the pair cost.
type figSample struct {
	discoFirst, discoLater float64
	s4First, s4Later       float64
	fallback               bool
	task                   time.Duration
}

// figScratch is one sweep worker's private state.
type figScratch struct {
	worker int
	d      *core.Disco
	s4     *s4.S4
	phases [5]hist // traced runs: Dijkstra, Disco first/later, S4 first/later
}

var figPhaseNames = [5]string{"pathtree.dest_dijkstra", "core.disco_first", "core.disco_later", "s4.first", "s4.later"}

// runFig is fig-stretch: the Fig. 3 sweep, driven from here the way the
// figure harness drives it. Per pair, one destination Dijkstra on the
// worker's shared pathtree.Lazy, then Disco and S4 first and later routes
// and their stretch.
func runFig(c config, w *world, tr *tracer, r *report) {
	g := w.g
	per := c.pairs / c.slices // pairs per batch
	pairs := samplePairs(c.seed, streamPairs, c.n, per*c.slices)
	samples := make([]figSample, len(pairs))
	// The workers' scratch outlives a batch: RunGather takes it from here
	// and the batch loop puts it back.
	scratch := make(chan *figScratch, c.workers())
	forks := make([]*figScratch, c.workers())
	for i := range forks {
		dest := pathtree.NewLazy(g)
		forks[i] = &figScratch{worker: i, d: w.disco.ForkWith(dest), s4: w.s4.ForkWith(dest)}
		scratch <- forks[i]
	}
	pair := func(sc *figScratch, i int) {
		s, t := graph.NodeID(pairs[i].Src), graph.NodeID(pairs[i].Dst)
		out := &samples[i]
		// One full span per 64th pair; every traced pair feeds the
		// per-phase histograms.
		root := -1
		if c.traced && i%64 == 0 {
			root = tr.begin("bench.pair", tidWorker+sc.worker, -1, i)
		}
		t0 := time.Now()
		last := t0
		lap := func(phase int) {
			if !c.traced {
				return
			}
			now := time.Now()
			sc.phases[phase].add(now.Sub(last))
			if root >= 0 {
				tr.end(tr.beginAt(figPhaseNames[phase], tidWorker+sc.worker, root, i, last))
			}
			last = now
		}
		short := sc.d.ND.ShortestDist(s, t)
		lap(0)
		fb, _ := sc.d.Fallbacks()
		out.discoFirst = g.PathLength(sc.d.FirstRoute(s, t, core.ShortcutNoPathKnowledge)) / short
		lap(1)
		fb2, _ := sc.d.Fallbacks()
		out.fallback = fb2 != fb
		out.discoLater = g.PathLength(sc.d.LaterRoute(s, t, core.ShortcutNoPathKnowledge)) / short
		lap(2)
		out.s4First = g.PathLength(sc.s4.FirstRoute(s, t)) / short
		lap(3)
		out.s4Later = g.PathLength(sc.s4.LaterRoute(s, t)) / short
		lap(4)
		out.task = time.Since(t0)
		tr.end(root)
	}

	// The sweep runs in c.slices batches and reports the median batch, so
	// that a burst of interference from the box moves a batch or two, not
	// the result.
	mem0 := readMemStats()
	var wall time.Duration
	var rates, tails []float64
	for b := 0; b < c.slices; b++ {
		lo := b * per
		t0 := time.Now()
		used := parallel.RunGather(per,
			func() *figScratch { return <-scratch },
			func(sc *figScratch, i int) { pair(sc, lo+i) })
		d := time.Since(t0)
		for _, sc := range used {
			scratch <- sc
		}
		wall += d
		rates = append(rates, float64(per)/d.Seconds())
		us := make([]float64, per)
		for i := range us {
			us[i] = float64(samples[lo+i].task) / 1e3
		}
		tails = append(tails, quantileOf(us, 0.90))
	}
	if c.traced {
		reportRuntime(r, mem0, (len(pairs)+999)/1000)
	}

	taskUs := make([]float64, len(samples))
	var busy time.Duration
	for i, sm := range samples {
		taskUs[i] = float64(sm.task) / 1e3
		busy += sm.task
	}
	r.setN("ops_per_s", quantileOf(rates, 0.5), len(pairs))
	r.setN("op_p50_us", quantileOf(taskUs, 0.50), len(taskUs))
	r.setN("op_tail_us", quantileOf(tails, 0.5), len(taskUs))
	r.set("parallel.efficiency", float64(busy)/(float64(c.workers())*float64(wall)))
	if c.traced {
		spans := 0
		for k, name := range figPhaseNames {
			var h hist
			for _, sc := range forks {
				h.merge(&sc.phases[k])
			}
			r.setN(name+"_us", h.quantile(0.5)/1e3, int(h.n))
			spans += int(h.n)
		}
		// A traced pair reads the clock once per phase; a span costs far
		// more than a clock read, so this is an upper bound.
		r.set("trace.overhead_share", spanCost()*float64(spans)/(float64(c.workers())*float64(wall)))
	}
	r.set("retained_mb", retainedMB()) // the world is used below
	r.set("state_bytes_per_node", float64(w.snap.Bytes())/float64(c.n))

	// Verification, untimed: the paper's bounds on every swept pair.
	t0 := time.Now()
	var first, later float64
	fallbacks := 0
	for i, sm := range samples {
		r.attempted++
		first += sm.discoFirst
		later += sm.discoLater
		if sm.fallback {
			fallbacks++
		}
		p := pairs[i]
		switch {
		case sm.discoFirst > maxFirstStretch && !sm.fallback:
			r.fail("pair %d->%d: Disco first stretch %.3f > 7 without fallback", p.Src, p.Dst, sm.discoFirst)
		case sm.discoLater > maxLaterStretch:
			r.fail("pair %d->%d: Disco later stretch %.3f > 3", p.Src, p.Dst, sm.discoLater)
		case sm.s4Later > maxLaterStretch:
			r.fail("pair %d->%d: S4 later stretch %.3f > 3", p.Src, p.Dst, sm.s4Later)
		case sm.discoFirst < 1-1e-9 || sm.discoLater < 1-1e-9 || sm.s4First < 1-1e-9 || sm.s4Later < 1-1e-9:
			r.fail("pair %d->%d: a route is shorter than the shortest path", p.Src, p.Dst)
		}
	}
	r.setN("stretch_first_mean", first/float64(len(samples)), len(samples))
	r.setN("stretch_later_mean", later/float64(len(samples)), len(samples))
	r.set("core.fallback_share", float64(fallbacks)/float64(len(pairs)))
	r.set("verify.s", time.Since(t0).Seconds())
}
