package serve_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"disco/internal/core"
	"disco/internal/dynamics"
	"disco/internal/graph"
	"disco/internal/serve"
	"disco/internal/snapshot"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

// buildServeEnv builds a small converged environment, its snapshot and the
// Disco instance query forks derive from.
func buildServeEnv(t *testing.T, n int, seed int64) (*static.Env, *snapshot.Snapshot, *core.Disco) {
	t.Helper()
	g := topology.GnmAvgDeg(rand.New(rand.NewSource(seed)), n, 8)
	env := static.NewEnv(g, seed)
	base, err := snapshot.Build(g, vicinity.DefaultK(n), env.Landmarks)
	if err != nil {
		t.Fatalf("snapshot build: %v", err)
	}
	return env, base, core.NewDisco(env, core.WithSeed(seed))
}

// routeKey canonicalizes one answer for comparison with the reference
// answer recomputed on the same epoch after the storm.
func routeKey(r serve.Result) string {
	if !r.OK {
		return "unreachable"
	}
	return fmt.Sprint(r.Route)
}

// obs is one recorded concurrent answer.
type obs struct {
	pair  int
	later bool
	epoch uint64
	key   string
}

// TestServeConcurrentStorm is the serve path's race suite: N query
// goroutines run a closed loop against the plane while the publisher
// drives a fail/recover storm through a dynamics.Timeline, publishing
// every post-event snapshot. Asserts, per the epoch/staleness contract:
//
//   - zero failed or torn reads (every query completes; -race catches
//     tearing);
//   - epochs observed by each goroutine are monotone non-decreasing;
//   - every answer is byte-identical to the answer its epoch's snapshot
//     gives when re-routed deterministically after the storm — i.e. every
//     concurrent answer is correct for SOME published epoch (linearizable
//     staleness), never a blend of two;
//   - retirement accounting closes: every superseded epoch is counted
//     retired and only the current one is still published.
func TestServeConcurrentStorm(t *testing.T) {
	const (
		n        = 192
		seed     = 3
		queriers = 8
		events   = 24
		npairs   = 16
	)
	env, base, d := buildServeEnv(t, n, seed)
	plane := serve.NewPlane(base, func(rep *snapshot.Snapshot) dynamics.Router {
		return d.ForkRepaired(rep)
	})
	tl := dynamics.NewTimeline(base)

	// Fixed query pairs so post-storm verification covers every observation.
	prng := rand.New(rand.NewSource(seed * 7))
	pairs := make([][2]graph.NodeID, npairs)
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(prng.Intn(n)), graph.NodeID(prng.Intn(n))}
	}

	var done atomic.Bool
	recs := make([][]obs, queriers)
	var wg sync.WaitGroup
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(q)))
			for !done.Load() {
				pi := rng.Intn(npairs)
				later := rng.Intn(2) == 1
				res := plane.Route(pairs[pi][0], pairs[pi][1], later)
				recs[q] = append(recs[q], obs{pair: pi, later: later, epoch: res.Epoch, key: routeKey(res)})
			}
		}(q)
	}

	// The publisher: a deterministic storm over the timeline, keeping every
	// published snapshot for post-hoc verification. Epoch seq == published
	// count == events applied.
	published := []*snapshot.Snapshot{base}
	erng := rand.New(rand.NewSource(seed * 13))
	edges := env.G.EdgeList()
	for ev := 0; ev < events; ev++ {
		var err error
		if tl.DownCount() == 0 || erng.Intn(2) == 0 {
			var link graph.EdgeKey
			for {
				link = edges[erng.Intn(len(edges))]
				if !tl.IsDown(link) {
					break
				}
			}
			_, err = tl.Fail([]graph.EdgeKey{link})
		} else {
			down := tl.Down()
			_, err = tl.Recover(down[erng.Intn(len(down)):][:1])
		}
		if err != nil {
			done.Store(true)
			wg.Wait()
			t.Fatalf("storm event %d: %v", ev, err)
		}
		seq, perr := plane.Publish(tl.Snapshot())
		if perr != nil {
			t.Fatalf("publish event %d: %v", ev, perr)
		}
		if seq != uint64(ev+1) {
			t.Errorf("published seq %d after %d events", seq, ev+1)
		}
		published = append(published, tl.Snapshot())
	}
	done.Store(true)
	wg.Wait()

	// Monotone epochs per goroutine.
	total := 0
	for q, rs := range recs {
		last := uint64(0)
		for i, o := range rs {
			if o.epoch < last {
				t.Fatalf("querier %d observed epoch %d after %d (obs %d): epochs must be monotone", q, o.epoch, last, i)
			}
			last = o.epoch
		}
		total += len(rs)
	}
	if total == 0 {
		t.Fatal("no queries completed during the storm")
	}

	// Every distinct (epoch, pair, phase) answer must equal the
	// deterministic re-route on that epoch's snapshot: correct for some
	// published epoch, and never a blend of two.
	type qk struct {
		epoch uint64
		pair  int
		later bool
	}
	want := make(map[qk]string)
	for _, rs := range recs {
		for _, o := range rs {
			k := qk{o.epoch, o.pair, o.later}
			ref, ok := want[k]
			if !ok {
				if o.epoch >= uint64(len(published)) {
					t.Fatalf("observed epoch %d beyond the %d published", o.epoch, len(published))
				}
				fork := d.ForkRepaired(published[o.epoch])
				var res serve.Result
				if o.later {
					res.Route, res.OK = fork.RepairedLaterRoute(pairs[o.pair][0], pairs[o.pair][1])
				} else {
					res.Route, res.OK = fork.RepairedFirstRoute(pairs[o.pair][0], pairs[o.pair][1])
				}
				res.Epoch = o.epoch
				ref = routeKey(res)
				want[k] = ref
			}
			if o.key != ref {
				t.Fatalf("epoch %d pair %v later=%v: concurrent answer %q != deterministic per-epoch answer %q",
					k.epoch, pairs[o.pair], o.later, o.key, ref)
			}
		}
	}

	// Retirement accounting: every superseded epoch retired, current published.
	m := plane.Metrics()
	if m.Published != events+1 {
		t.Fatalf("published = %d, want %d", m.Published, events+1)
	}
	if m.Retired != m.Published-1 {
		t.Fatalf("retired = %d with all readers gone, want %d (every superseded epoch)", m.Retired, m.Published-1)
	}
	if m.Queries != uint64(total) {
		t.Fatalf("plane counted %d queries, queriers recorded %d", m.Queries, total)
	}
	if res := plane.Route(pairs[0][0], pairs[0][1], false); res.Epoch != uint64(events) {
		t.Fatalf("current epoch = %d, want %d", res.Epoch, events)
	}
}

// TestPlaneSingleThreadContract checks the plane's sequencing on one
// goroutine: the base publishes as epoch 0, Publish returns consecutive
// sequence numbers, fresh answers are not stale, and counters add up.
func TestPlaneSingleThreadContract(t *testing.T) {
	_, base, d := buildServeEnv(t, 96, 5)
	plane := serve.NewPlane(base, func(rep *snapshot.Snapshot) dynamics.Router {
		return d.ForkRepaired(rep)
	})
	res := plane.Route(1, 2, false)
	if res.Epoch != 0 || res.Stale {
		t.Fatalf("fresh query on the base: %+v", res)
	}
	if !res.OK || len(res.Route) == 0 {
		t.Fatalf("connected pair undeliverable on the base snapshot: %+v", res)
	}
	tl := dynamics.NewTimeline(base)
	link := (graph.EdgeKey{U: res.Route[0], V: res.Route[1]}).Norm()
	if len(res.Route) == 1 { // s==t path degenerate; pick any edge instead
		link = base.Graph().EdgeList()[0]
	}
	if _, err := tl.Fail([]graph.EdgeKey{link}); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if seq, err := plane.Publish(tl.Snapshot()); err != nil || seq != 1 {
		t.Fatalf("second publish = (%d, %v), want (1, nil)", seq, err)
	}
	res = plane.Route(1, 2, true)
	if res.Epoch != 1 || res.Stale {
		t.Fatalf("query after publish: %+v", res)
	}
	m := plane.Metrics()
	if m.Queries != 2 || m.Published != 2 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.Retired != 1 {
		t.Fatalf("retired = %d: the superseded base epoch had no readers left", m.Retired)
	}
}

// TestPlaneClose pins the lifecycle: before Close the final epoch is still
// published (Retired == Published-1); after Close every epoch — the last
// one included — is retired, later Publish fails with ErrClosed, queries
// answer OK=false without disturbing the counters, and closing again is a
// no-op.
func TestPlaneClose(t *testing.T) {
	_, base, d := buildServeEnv(t, 96, 5)
	plane := serve.NewPlane(base, func(rep *snapshot.Snapshot) dynamics.Router {
		return d.ForkRepaired(rep)
	})
	tl := dynamics.NewTimeline(base)
	if _, err := tl.Fail(base.Graph().EdgeList()[:1]); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if _, err := plane.Publish(tl.Snapshot()); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	res := plane.Route(1, 2, false)
	if res.Epoch != 1 {
		t.Fatalf("pre-close query answered on epoch %d, want 1", res.Epoch)
	}
	if m := plane.Metrics(); m.Retired != m.Published-1 {
		t.Fatalf("pre-close: retired = %d, want %d (the current epoch is still held)", m.Retired, m.Published-1)
	}

	plane.Close()
	m := plane.Metrics()
	if m.Published != 2 {
		t.Fatalf("published = %d, want 2", m.Published)
	}
	if m.Retired != m.Published {
		t.Fatalf("after Close with no in-flight readers: retired = %d, want %d (the final epoch must be reclaimed too)", m.Retired, m.Published)
	}
	if _, err := plane.Publish(tl.Snapshot()); err != serve.ErrClosed {
		t.Fatalf("Publish after Close: err = %v, want ErrClosed", err)
	}
	if res := plane.Route(1, 2, false); res.OK {
		t.Fatal("Route after Close must answer OK=false")
	}
	if res := plane.Probe(1, 2, true); res.OK {
		t.Fatal("Probe after Close must answer OK=false")
	}
	if got := plane.Metrics(); got.Queries != m.Queries {
		t.Fatalf("closed-plane queries must not count: %d -> %d", m.Queries, got.Queries)
	}
	plane.Close() // idempotent: must not retire twice or panic
	if got := plane.Metrics(); got.Retired != m.Retired {
		t.Fatalf("second Close changed retired: %d -> %d", m.Retired, got.Retired)
	}
}

// gateRouter is a query fork whose first-packet route announces itself on
// entered and then blocks until gate closes, so a test can hold one query
// in flight on one epoch.
type gateRouter struct {
	dynamics.Router
	entered chan<- struct{}
	gate    <-chan struct{}
}

func (g gateRouter) AppendRoute(dst []graph.NodeID, s, t graph.NodeID, later bool) ([]graph.NodeID, bool) {
	if !later {
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.Router.AppendRoute(dst, s, t, later)
}

// TestPlaneDropsSupersededEpochs pins where reclamation happens: in the
// garbage collector. A superseded epoch nobody is querying is collectable
// at once; one a query is still routing on stays alive until that query
// returns, and is collectable after. The weak pointers are to repaired
// snapshots, which only their epoch's forks keep reachable — the timeline
// pins its base and its current snapshot.
func TestPlaneDropsSupersededEpochs(t *testing.T) {
	const epochs, held = 5, 2
	_, base, d := buildServeEnv(t, 96, 5)
	plane := serve.NewPlane(base, func(rep *snapshot.Snapshot) dynamics.Router {
		return d.ForkRepaired(rep)
	})
	defer plane.Close()
	tl := dynamics.NewTimeline(base)
	edges := base.Graph().EdgeList()

	entered, gate := make(chan struct{}), make(chan struct{})
	answer := make(chan serve.Result)
	snaps := make([]weak.Pointer[snapshot.Snapshot], epochs)
	var heldSeq uint64
	for i := range snaps {
		if _, err := tl.Fail(edges[i : i+1]); err != nil {
			t.Fatalf("Fail: %v", err)
		}
		snaps[i] = weak.Make(tl.Snapshot())
		if i != held {
			if _, err := plane.Publish(tl.Snapshot()); err != nil {
				t.Fatalf("Publish: %v", err)
			}
			continue
		}
		seq, err := plane.PublishWith(tl.Snapshot(), func(rep *snapshot.Snapshot) dynamics.Router {
			return gateRouter{Router: d.ForkRepaired(rep), entered: entered, gate: gate}
		})
		if err != nil {
			t.Fatalf("PublishWith: %v", err)
		}
		heldSeq = seq
		go func() { answer <- plane.Route(1, 2, false) }()
		<-entered
	}

	// Three cycles: a query context the plane pooled stays reachable from
	// the runtime's pool list for two, and with it the fork it last held.
	collect := func() {
		for range 3 {
			runtime.GC()
		}
	}
	collect()
	for i, w := range snaps[:epochs-1] {
		if alive := w.Value() != nil; alive != (i == held) {
			t.Errorf("superseded epoch %d: alive = %v, want %v (only the one a query is in flight on)", i+1, alive, i == held)
		}
	}
	if snaps[epochs-1].Value() == nil {
		t.Error("the current epoch's snapshot was collected")
	}

	close(gate)
	res := <-answer
	if res.Epoch != heldSeq || !res.Stale {
		t.Fatalf("in-flight query answered %+v, want epoch %d and stale", res, heldSeq)
	}
	collect()
	if snaps[held].Value() != nil {
		t.Fatalf("epoch %d still alive after its last query returned", heldSeq)
	}
}

// TestPlaneReleasesEpochAtNextQuery pins that the fork pool does not
// outlive its epoch: once a query has run on the next epoch, one
// collection frees the superseded one. A pool per epoch failed this — the
// runtime keeps a used pool for two collections — and when queries
// allocate nothing, so that collections come only at the publisher's pace,
// the epochs of the last two cycles piled up.
func TestPlaneReleasesEpochAtNextQuery(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: every query takes the same pooled context
	_, base, d := buildServeEnv(t, 96, 5)
	plane := serve.NewPlane(base, func(rep *snapshot.Snapshot) dynamics.Router {
		return d.ND.ForkRepaired(rep)
	})
	defer plane.Close()
	tl := dynamics.NewTimeline(base)
	edges := base.Graph().EdgeList()

	var first weak.Pointer[snapshot.Snapshot]
	for i := range 2 {
		if _, err := tl.Fail(edges[i : i+1]); err != nil {
			t.Fatalf("Fail: %v", err)
		}
		if i == 0 {
			first = weak.Make(tl.Snapshot())
		}
		if _, err := plane.Publish(tl.Snapshot()); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		if res := plane.Probe(1, 2, false); !res.OK {
			t.Fatalf("probe on epoch %d undelivered", res.Epoch)
		}
	}
	runtime.GC()
	if first.Value() != nil {
		t.Fatal("superseded epoch alive after a query on its successor and one collection")
	}
}

// nullRouter answers every query at once, so a plane over it costs only
// the plane.
type nullRouter struct{}

func (nullRouter) AppendRoute(dst []graph.NodeID, s, t graph.NodeID, later bool) ([]graph.NodeID, bool) {
	return dst, true
}

// probeSink keeps BenchmarkPlaneProbe's results live.
var probeSink serve.Result

// BenchmarkPlaneProbe times the plane's own per-query overhead — epoch
// load, pool Get/Put, staleness check and counters — over a router that
// does no work, on one goroutine and on GOMAXPROCS. Both cases call Probe
// from a plain loop, as bench/ and eval do, where it inlines; Go 1.24 does
// not inline calls in a b.Loop body.
func BenchmarkPlaneProbe(b *testing.B) {
	plane := serve.NewPlane(nil, func(*snapshot.Snapshot) dynamics.Router { return nullRouter{} })
	defer plane.Close()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			probeSink = plane.Probe(1, 2, i&1 == 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			later := false
			for pb.Next() {
				plane.Probe(1, 2, later)
				later = !later
			}
		})
	})
}
