package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"disco/internal/core"
	"disco/internal/dynamics"
	"disco/internal/forward"
	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/parallel"
	"disco/internal/s4"
	"disco/internal/snapshot"
	"disco/internal/static"
	"disco/internal/topology"
)

// The four workloads. README.md says why each exists and which layers it
// loads.
const (
	serveTables  = "serve-tables"
	serveWalk    = "serve-walk"
	churnCompact = "churn-compact"
	figStretch   = "fig-stretch"
)

var workloadNames = []string{serveTables, serveWalk, churnCompact, figStretch}

// config is one run's sizes. main derives them from -seconds; the test
// shrinks them.
type config struct {
	workload string
	seed     int64
	traced   bool

	n         int
	setupReps int           // set-ups timed per run; setup_s is their median
	window    time.Duration // serve-*: length of the query window
	interval  time.Duration // serve-*: time between two events falling due
	slices    int           // serve-*: equal parts of the window; fig-stretch: batches of the sweep
	events    int           // storm length
	pairs     int           // fig-stretch: pairs swept; churn-compact: probe pairs per event
	verify    int           // pairs of the untimed verification pass
	micro     int           // traced run: queries per post-window loop
}

// Work per second of -seconds. The serve workloads measure for a fixed
// window with an open-loop storm at eventRate. The closed-loop workloads
// do a fixed amount of work, sized to take about -seconds on the
// reference box at the seed commit, so that every count the program
// makes repeats exactly for one seed.
const (
	eventRate      = 4  // serve-*: events due per second
	churnEventsPer = 28 // churn-compact: events per second of -seconds
	figPairsPer    = 1300
)

func configFor(workload string, seed int64, seconds int, traced bool) (config, error) {
	c := config{workload: workload, seed: seed, traced: traced, verify: 2000, micro: 200000}
	switch workload {
	case serveTables, serveWalk:
		c.n = 4096
		c.setupReps = 7
		c.window = time.Duration(seconds) * time.Second
		c.interval = time.Second / eventRate
		c.slices = seconds
		c.events = eventRate * seconds
	case churnCompact:
		c.n = 2048
		c.setupReps = 15
		c.events = churnEventsPer * seconds
		c.pairs = 150
		c.verify = 6000
	case figStretch:
		c.n = 8192
		c.setupReps = 5
		c.slices = 10
		c.pairs = figPairsPer * seconds
		c.verify = c.pairs // every swept pair is checked
	default:
		return c, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
	}
	return c, nil
}

// workers is the repair and sweep pool size the workload sets, once per
// process: the serve workloads repair on one worker beside the one
// querier, the closed-loop workloads use every core.
func (c config) workers() int {
	if c.workload == serveTables || c.workload == serveWalk {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// Seeded streams: everything a run draws derives from -seed through one of
// these task ids, so topology, storm, pairs and queries are independent
// streams of one seed.
const (
	streamStorm = iota + 1
	streamQuery
	streamVerify
	streamProbe
	streamPairs
	streamMicro
)

func stream(seed int64, id int) *rand.Rand { return parallel.TaskRNG(seed, id) }

// world is the converged system a workload runs on.
type world struct {
	g      *graph.Graph
	env    *static.Env
	disco  *core.Disco
	s4     *s4.S4
	snap   *snapshot.Snapshot
	tables *forward.Tables // serve-tables only

	phases map[string]time.Duration // per set-up phase, of the kept set-up
}

// setup builds topology, environment, protocols and snapshot (and the
// compiled tables on serve-tables) up to the point where the first
// operation can be issued, one span per phase.
func setup(c config, tr *tracer, rep int) (*world, time.Duration, error) {
	w := &world{phases: map[string]time.Duration{}}
	var err error
	root := tr.begin("bench.setup", tidMain, -1, rep)
	t0 := time.Now()
	phase := func(name string, fn func()) {
		w.phases[name] = tr.timed(name, tidMain, root, rep, fn)
	}
	phase("topology.build", func() {
		rng := rand.New(rand.NewSource(c.seed))
		if c.workload == serveTables || c.workload == serveWalk {
			w.g = topology.GnmAvgDeg(rng, c.n, 8)
		} else {
			w.g = topology.RouterLike(rng, c.n)
		}
	})
	phase("static.env", func() { w.env = static.NewEnv(w.g, c.seed) })
	phase("core.new_disco", func() { w.disco = core.NewDisco(w.env, core.WithSeed(c.seed)) })
	if c.workload == figStretch {
		phase("s4.new", func() { w.s4 = s4.New(w.env, 1) })
	}
	phase("snapshot.build", func() {
		build := snapshot.Build
		if c.workload == churnCompact {
			build = snapshot.BuildCompact
		}
		w.snap, err = build(w.g, w.disco.ND.K, w.env.Landmarks)
	})
	if err != nil {
		return nil, 0, fmt.Errorf("snapshot build: %w", err)
	}
	switch c.workload {
	case serveTables:
		phase("forward.precompile", func() {
			w.tables = forward.Compile(w.snap, w.env.Landmarks, w.env.LMOf)
			w.tables.Precompile()
		})
	case figStretch:
		w.disco.ND.UseSnapshot(w.snap)
		w.s4.UseSnapshot(w.snap)
	}
	d := time.Since(t0)
	tr.end(root)
	return w, d, nil
}

// setupMedian sets up c.setupReps times and returns the last world and the
// median set-up time: one set-up is a single sample of a few seconds, too
// few to hold a bound.
func setupMedian(c config, tr *tracer, r *report) (*world, error) {
	var w *world
	times := make([]float64, 0, c.setupReps)
	for rep := 0; rep < c.setupReps; rep++ {
		w = nil // let the previous world go before building the next
		var d time.Duration
		var err error
		if w, d, err = setup(c, tr, rep); err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	r.setN("setup_s", quantileOf(times, 0.5), len(times))
	for name, d := range w.phases {
		r.set(name+"_s", d.Seconds())
	}
	return w, nil
}

// stormEvent is one pre-drawn event of the fail/recover storm.
type stormEvent struct {
	fail  bool
	links []graph.EdgeKey
}

// genStorm draws the storm before anything is timed: each event fails or
// recovers 1-2 links on a fair coin. Failed links come only from the
// non-bridge links of the current failed graph (the second link of an
// event from the graph already missing the first), so the topology stays
// connected: every query must deliver and repair must equal rebuild. It
// returns the time spent in Graph.Bridges.
func genStorm(g *graph.Graph, seed int64, events int) ([]stormEvent, time.Duration) {
	rng := stream(seed, streamStorm)
	edges := g.EdgeList()
	dead := make([]bool, len(edges))
	var down []int // EIDs currently failed
	var bridges time.Duration
	storm := make([]stormEvent, 0, events)
	for len(storm) < events {
		if len(down) == 0 || rng.Intn(2) == 0 {
			ev := stormEvent{fail: true}
			for count := 1 + rng.Intn(2); count > 0; count-- {
				cur := g.WithoutEdges(dead)
				t0 := time.Now()
				isBridge := cur.Bridges()
				bridges += time.Since(t0)
				// cur numbers the surviving edges densely in base order.
				var safe []int
				curID := 0
				for id := range edges {
					if dead[id] {
						continue
					}
					if !isBridge[curID] {
						safe = append(safe, id)
					}
					curID++
				}
				if len(safe) == 0 {
					break
				}
				id := safe[rng.Intn(len(safe))]
				dead[id] = true
				down = append(down, id)
				ev.links = append(ev.links, edges[id])
			}
			if len(ev.links) > 0 {
				storm = append(storm, ev)
			}
			continue
		}
		ev := stormEvent{}
		limit := 2
		if len(down) < limit {
			limit = len(down)
		}
		for count := 1 + rng.Intn(limit); count > 0; count-- {
			i := rng.Intn(len(down))
			id := down[i]
			down = append(down[:i], down[i+1:]...)
			dead[id] = false
			ev.links = append(ev.links, edges[id])
		}
		storm = append(storm, ev)
	}
	return storm, bridges
}

// drainEvents is how many events genStorm draws beyond the measured ones.
const drainEvents = 32

// drainToFold applies spare events, untimed, until the chain folds (or the
// spare events run out). The overlay grows with every event and folds
// every few; retained_mb read right after a fold sees the same point of
// that cycle in every run, not wherever the measured storm happened to
// end.
func drainToFold(spare []stormEvent, apply func(i int, ev stormEvent) *snapshot.RepairStats) {
	for i, ev := range spare {
		if st := apply(i, ev); st == nil || st.Folded {
			return
		}
	}
}

// applyEvent advances the timeline by one storm event.
func applyEvent(tl *dynamics.Timeline, ev stormEvent) (*snapshot.RepairStats, error) {
	if ev.fail {
		return tl.Fail(ev.links)
	}
	return tl.Recover(ev.links)
}

// eventSpanName names the span of an event's repair after the call it
// wraps.
func eventSpanName(ev stormEvent) string {
	if ev.fail {
		return "dynamics.Timeline.Fail"
	}
	return "dynamics.Timeline.Recover"
}

// samplePairs draws k pairs with distinct endpoints from one stream.
func samplePairs(seed int64, id, n, k int) []metrics.Pair {
	return metrics.SamplePairs(stream(seed, id), n, k)
}

// validPath reports whether route is a walk s ⇝ t over links of g.
func validPath(g *graph.Graph, route []graph.NodeID, s, t graph.NodeID) bool {
	if len(route) == 0 || route[0] != s || route[len(route)-1] != t {
		return false
	}
	for i := 1; i < len(route); i++ {
		if g.EdgeID(route[i-1], route[i]) < 0 {
			return false
		}
	}
	return true
}

// Stretch bounds of the paper (§4.5 Theorem 1), with float slack.
const (
	maxFirstStretch = 7 + 1e-9
	maxLaterStretch = 3 + 1e-9
)

// retainedMB returns the heap still reachable, in MB; the caller keeps the
// state it wants counted alive across the call. It collects three times:
// the runtime's sync.Pool registry keeps a used pool, and with it the
// retired serve epoch that embeds the pool, its tables and its snapshot,
// reachable until the second collection after the pool's last use.
func retainedMB() float64 {
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	return float64(readMemStats().HeapAlloc) / 1e6
}

func readMemStats() *runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &ms
}

// reportRuntime sets the GC cycles, GC pause and allocation since before,
// the allocation divided over ops.
func reportRuntime(r *report, before *runtime.MemStats, ops int) {
	now := readMemStats()
	r.set("runtime.gc_cycles", float64(now.NumGC-before.NumGC))
	r.set("runtime.gc_pause_ms", float64(now.PauseTotalNs-before.PauseTotalNs)/1e6)
	r.set("runtime.alloc_mb_per_event", float64(now.TotalAlloc-before.TotalAlloc)/1e6/float64(ops))
	r.set("runtime.peak_rss_mb", peakRSSMB())
}

// peakRSSMB reads the process's high-water resident set (VmHWM), 0 where
// the platform has no /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1e3
		}
	}
	return 0
}

// repairTotals collects a storm's measured events: the exactly
// repeatable RepairStats counts and the repair service times.
type repairTotals struct {
	events                                   int
	candidates, vicRebuilt, vicChanged       int
	rowsRebuilt, rowsPatched, dropped, folds int
	shardsShare                              float64
	stateBytes                               int64 // summed over the post-event chain heads

	eventMs, failMs, recoverMs, foldMs []float64
}

func (t *repairTotals) add(ev stormEvent, st *snapshot.RepairStats, head *snapshot.Snapshot, repair time.Duration) {
	t.events++
	t.stateBytes += head.Bytes()
	t.candidates += st.Candidates
	t.vicRebuilt += st.VicRebuilt
	t.vicChanged += st.VicChanged
	t.rowsRebuilt += st.RowsRebuilt
	t.rowsPatched += st.RowsPatched
	t.dropped += len(st.VicTouched) + len(st.RowsTouched)
	t.shardsShare += st.ShardsRebuilt()
	ms := float64(repair) / 1e6
	t.eventMs = append(t.eventMs, ms)
	if ev.fail {
		t.failMs = append(t.failMs, ms)
	} else {
		t.recoverMs = append(t.recoverMs, ms)
	}
	if st.Folded {
		t.folds++
		t.foldMs = append(t.foldMs, ms)
	}
}

// report sets the per-event means and medians. state_bytes_per_node is
// the mean over the post-event chain heads, not the last head's: the
// overlay grows and folds every few events, and where in that cycle a
// storm happens to end is not a property of the system.
func (t *repairTotals) report(r *report, head *snapshot.Snapshot) {
	per := func(x int) float64 { return float64(x) / float64(t.events) }
	r.setN("state_bytes_per_node", float64(t.stateBytes)/float64(t.events)/float64(head.Graph().N()), t.events)
	r.set("snapshot.candidates_per_event", per(t.candidates))
	r.set("snapshot.vic_rebuilt_per_event", per(t.vicRebuilt))
	r.set("snapshot.rows_rebuilt_per_event", per(t.rowsRebuilt))
	r.set("snapshot.rows_patched_per_event", per(t.rowsPatched))
	r.set("snapshot.shards_rebuilt_share", t.shardsShare/float64(t.events))
	if t.vicRebuilt > 0 {
		r.set("snapshot.vic_useful_share", float64(t.vicChanged)/float64(t.vicRebuilt))
	}
	r.set("snapshot.overlay_shards_end", float64(head.OverlayShards()))
	r.set("snapshot.folds", float64(t.folds))
	r.set("forward.dropped_shards_per_event", per(t.dropped))
	r.setN("dynamics.event_ms_p50", quantileOf(t.eventMs, 0.50), len(t.eventMs))
	r.setN("dynamics.event_ms_p90", quantileOf(t.eventMs, 0.90), len(t.eventMs))
	r.setN("dynamics.fail_ms", quantileOf(t.failMs, 0.5), len(t.failMs))
	r.setN("dynamics.recover_ms", quantileOf(t.recoverMs, 0.5), len(t.recoverMs))
	r.setN("snapshot.fold_event_ms", quantileOf(t.foldMs, 0.5), len(t.foldMs))
}

// microProbes times the graph and snapshot primitives set-up and the
// figure sweep are made of, on seeded sources (traced runs only).
func microProbes(c config, w *world, r *report) {
	const sources = 64
	rng := stream(c.seed, streamMicro)
	sp := graph.NewSSSP(w.g)
	full := make([]float64, sources)
	ball := make([]float64, sources)
	for i := range full {
		src := graph.NodeID(rng.Intn(c.n))
		t0 := time.Now()
		sp.Run(src)
		full[i] = float64(time.Since(t0)) / 1e3
		t0 = time.Now()
		sp.RunK(src, w.snap.K())
		ball[i] = float64(time.Since(t0)) / 1e3
	}
	r.setN("graph.sssp_full_us", quantileOf(full, 0.5), sources)
	r.setN("graph.sssp_ball_us", quantileOf(ball, 0.5), sources)

	const reads = 20000
	vs := make([]graph.NodeID, reads)
	for i := range vs {
		vs[i] = graph.NodeID(rng.Intn(c.n))
	}
	size := 0
	t0 := time.Now()
	for _, v := range vs {
		size += w.snap.Vicinity(v).Size()
	}
	d := time.Since(t0)
	if size == 0 {
		panic("bench: empty vicinities")
	}
	r.setN("snapshot.vicinity_read_ns", float64(d)/reads, reads)
}
