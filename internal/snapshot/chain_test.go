package snapshot

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"disco/internal/graph"
	"disco/internal/static"
	"disco/internal/vicinity"
)

// chainDriver drives an interleaved fail/recover sequence against a
// snapshot chain, tracking which base-topology links are currently down so
// recoveries restore real weights. Draws are deterministic from the rng.
type chainDriver struct {
	baseG *graph.Graph
	cur   *Snapshot
	down  []graph.EdgeKey // sorted
}

func newChainDriver(base *Snapshot) *chainDriver {
	return &chainDriver{baseG: base.Graph(), cur: base}
}

// failOne fails one random currently-alive link, redrawing (and giving up
// after enough tries) if connected is set and the draw would disconnect
// the current topology.
func (d *chainDriver) failOne(t *testing.T, rng *rand.Rand, connected bool) {
	t.Helper()
	g := d.cur.Graph()
	var bridges []bool
	if connected {
		bridges = g.Bridges()
	}
	for try := 0; try < 1000; try++ {
		u := graph.NodeID(rng.Intn(g.N()))
		es := g.Neighbors(u)
		if len(es) == 0 {
			continue
		}
		e := es[rng.Intn(len(es))]
		if connected && bridges[e.EID] {
			continue
		}
		key := (graph.EdgeKey{U: u, V: e.To}).Norm()
		rep, err := d.cur.ApplyFailures([]graph.EdgeKey{key})
		if err != nil {
			t.Fatalf("ApplyFailures(%v): %v", key, err)
		}
		d.cur = rep
		i := sort.Search(len(d.down), func(i int) bool {
			return d.down[i].U > key.U || (d.down[i].U == key.U && d.down[i].V >= key.V)
		})
		d.down = append(d.down, graph.EdgeKey{})
		copy(d.down[i+1:], d.down[i:])
		d.down[i] = key
		return
	}
	t.Fatal("could not draw a failable link")
}

// recoverOne restores one random currently-down link with its base weight.
func (d *chainDriver) recoverOne(t *testing.T, rng *rand.Rand) {
	t.Helper()
	if len(d.down) == 0 {
		t.Fatal("recoverOne with no down links")
	}
	i := rng.Intn(len(d.down))
	key := d.down[i]
	w := d.baseG.EdgeWeight(key.U, key.V)
	if w < 0 {
		t.Fatalf("down link %v not in the base graph", key)
	}
	rep, err := d.cur.ApplyRecoveries([]graph.WeightedLink{{U: key.U, V: key.V, W: w}})
	if err != nil {
		t.Fatalf("ApplyRecoveries(%v): %v", key, err)
	}
	d.cur = rep
	d.down = append(d.down[:i], d.down[i+1:]...)
}

// TestSnapshotChainEquivalence is the continuous-dynamics contract: after
// ANY interleaved fail/recover sequence, the chained snapshot must hold
// route state byte-identical (CanonicalBytes) to a from-scratch build of
// the current topology, in both storage regimes — including across
// automatic chain folds — on G(n,m), whose windows hold levels, and on a
// geometric map, whose windows hold float64 distances. The compact chain
// runs the same draws in lockstep with an exact twin (checkChainStep).
// Failures are drawn non-disconnecting so the from-scratch comparison build
// stays possible at every step.
func TestSnapshotChainEquivalence(t *testing.T) {
	for _, compact := range []bool{false, true} {
		name := "exact"
		if compact {
			name = "compact"
		}
		t.Run(name, func(t *testing.T) {
			for _, tc := range []struct {
				name string
				env  *static.Env
			}{{"gnm", buildEnv(t, 384, 11)}, {"geometric", buildGeoEnv(t, 384, 11)}} {
				t.Run(tc.name, func(t *testing.T) {
					k := vicinity.DefaultK(tc.env.N())
					heads := []*chainDriver{newChainDriver(mustBuild(t, tc.env, k, false))}
					if compact {
						twins := twinDrivers(t, tc.env, k)
						heads = twins[:]
					}
					rngs := []*rand.Rand{rand.New(rand.NewSource(31)), rand.New(rand.NewSource(31))}
					folds := 0
					for step := 0; step < 28; step++ {
						for i, d := range heads {
							// Bias toward failures early so recoveries have
							// stock, and interleave so repair-of-repair and
							// recover-of-repair chains both occur.
							if len(d.down) == 0 || (len(d.down) < 10 && rngs[i].Intn(3) != 0) {
								d.failOne(t, rngs[i], true)
							} else {
								d.recoverOne(t, rngs[i])
							}
						}
						if compact {
							checkChainStep(t, step, [2]*chainDriver(heads))
						} else {
							cur := heads[0].cur
							fresh, err := Build(cur.Graph(), k, tc.env.Landmarks)
							if err != nil {
								t.Fatalf("step %d: from-scratch rebuild: %v", step, err)
							}
							if !bytes.Equal(cur.CanonicalBytes(), fresh.CanonicalBytes()) {
								t.Fatalf("step %d: the chain differs from a from-scratch build", step)
							}
						}
						if heads[0].cur.RepairStats().Folded {
							folds++
						}
					}
					if len(heads[0].down) == 0 || folds == 0 {
						t.Errorf("%d links down at the end, %d folds: want an interleaved chain that folds", len(heads[0].down), folds)
					}
				})
			}
		})
	}
}

// twinDrivers returns chain drivers over an exact and a compact build of
// env, in that order.
func twinDrivers(t *testing.T, env *static.Env, k int) [2]*chainDriver {
	return [2]*chainDriver{newChainDriver(mustBuild(t, env, k, false)), newChainDriver(mustBuild(t, env, k, true))}
}

// checkChainStep requires the exact and compact chain heads of one step to
// hold the same route state and report the same RepairStats, and that state
// to be a from-scratch build's of their topology, in both regimes.
func checkChainStep(t *testing.T, step int, heads [2]*chainDriver) {
	t.Helper()
	exact, compact := heads[0].cur, heads[1].cur
	want := exact.CanonicalBytes()
	if !bytes.Equal(compact.CanonicalBytes(), want) {
		t.Fatalf("step %d: the compact chain differs from its exact twin", step)
	}
	if !reflect.DeepEqual(compact.RepairStats(), exact.RepairStats()) {
		t.Fatalf("step %d: compact repair stats %+v, exact %+v", step, compact.RepairStats(), exact.RepairStats())
	}
	for _, build := range []func(*graph.Graph, int, []graph.NodeID) (*Snapshot, error){Build, BuildCompact} {
		fresh, err := build(exact.Graph(), exact.K(), exact.landmarks)
		if err != nil {
			t.Fatalf("step %d: from-scratch rebuild: %v", step, err)
		}
		if !bytes.Equal(fresh.CanonicalBytes(), want) {
			t.Fatalf("step %d: the chain differs from a from-scratch build (compact=%v)", step, fresh.Compact())
		}
	}
}

// TestSnapshotChainLeavesUnitWeights drives a G(n,m) chain across the
// distance-form boundary. A link fails and comes back with weight 2, so
// the graph stops being unit-weight: recomputed windows hold float64
// distances beside the base's levels, and the fold that follows re-encodes
// every window of a compact store as float64. One more failure adds float
// windows to the overlay; then the weight-2 link fails again, and the next
// fold turns the store back to levels, those float windows included. At
// every step both regimes must match each other and a from-scratch build.
func TestSnapshotChainLeavesUnitWeights(t *testing.T) {
	env := buildEnv(t, 256, 17)
	heads := twinDrivers(t, env, vicinity.DefaultK(env.N()))
	rngs := [2]*rand.Rand{rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))}
	bridges := env.G.Bridges()
	var link graph.EdgeKey
	for _, e := range env.G.Neighbors(0) {
		if !bridges[e.EID] {
			link = (graph.EdgeKey{U: 0, V: e.To}).Norm()
			break
		}
	}
	step := 0
	apply := func(repair func(*Snapshot) (*Snapshot, error)) {
		t.Helper()
		for _, d := range heads {
			next, err := repair(d.cur)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			d.cur = next
		}
		checkChainStep(t, step, heads)
		step++
	}
	failLink := func(s *Snapshot) (*Snapshot, error) { return s.ApplyFailures([]graph.EdgeKey{link}) }
	failAny := func() {
		t.Helper()
		for i, d := range heads {
			d.failOne(t, rngs[i], true)
		}
		checkChainStep(t, step, heads)
		step++
	}
	untilFold := func(levels bool) {
		t.Helper()
		for !heads[0].cur.RepairStats().Folded {
			if step == 200 {
				t.Fatal("chain never folded")
			}
			failAny()
		}
		if cs := heads[1].cur.cs; cs.levels != levels || heads[1].cur.Graph().Unit() != levels {
			t.Fatalf("step %d: folded compact store has levels=%v over a graph with Unit()=%v, want %v", step, cs.levels, heads[1].cur.Graph().Unit(), levels)
		}
	}
	apply(failLink)
	apply(func(s *Snapshot) (*Snapshot, error) {
		return s.ApplyRecoveries([]graph.WeightedLink{{U: link.U, V: link.V, W: 2}})
	})
	untilFold(false)
	failAny()
	if heads[0].cur.RepairStats().Folded {
		t.Fatalf("step %d: folded the float windows before the weight-2 link failed", step)
	}
	apply(failLink)
	untilFold(true)
}

// TestSnapshotChainRecoveryRestoresBase: failing links and recovering all
// of them must land back, byte for byte, on the original snapshot's route
// state — the strongest form of "recovery repairs the blast radius in
// reverse".
func TestSnapshotChainRecoveryRestoresBase(t *testing.T) {
	for _, compact := range []bool{false, true} {
		env := buildEnv(t, 256, 7)
		k := vicinity.DefaultK(env.N())
		base := mustBuild(t, env, k, compact)

		d := newChainDriver(base)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 6; i++ {
			d.failOne(t, rng, false) // disconnections allowed: recovery must undo them too
		}
		for len(d.down) > 0 {
			d.recoverOne(t, rng)
		}
		if !bytes.Equal(d.cur.CanonicalBytes(), base.CanonicalBytes()) {
			t.Fatalf("compact=%v: recovering every failed link did not restore the base route state", compact)
		}
		if d.cur.Graph().M() != env.G.M() {
			t.Fatalf("compact=%v: recovered graph has %d edges, base has %d", compact, d.cur.Graph().M(), env.G.M())
		}
	}
}

// TestSnapshotChainBounded is the compaction contract: over a 100-step
// interleaved fail/recover sequence, the chain must not leak history — the
// private overlay stays below the fold threshold plus one event's blast
// radius, folds actually happen, and the live snapshot's backing storage
// stays within a constant factor of the base build, in both storage
// regimes. (Peak RSS in a unit test is scheduler noise; OverlayShards and
// Bytes are the deterministic proxies the contract is stated in.)
func TestSnapshotChainBounded(t *testing.T) {
	for _, compact := range []bool{false, true} {
		name := "exact"
		if compact {
			name = "compact"
		}
		t.Run(name, func(t *testing.T) {
			env := buildEnv(t, 256, 17)
			n := env.N()
			k := vicinity.DefaultK(n)
			base := mustBuild(t, env, k, compact)
			totalShards := n + len(env.Landmarks)
			baseBytes := base.Bytes()

			d := newChainDriver(base)
			rng := rand.New(rand.NewSource(23))
			folds, peakOverlay := 0, 0
			var peakBytes int64
			for step := 0; step < 100; step++ {
				if len(d.down) == 0 || (len(d.down) < 8 && rng.Intn(2) == 0) {
					d.failOne(t, rng, false)
				} else {
					d.recoverOne(t, rng)
				}
				if st := d.cur.RepairStats(); st.Folded {
					folds++
				}
				if ov := d.cur.OverlayShards(); ov > peakOverlay {
					peakOverlay = ov
				}
				if b := d.cur.Bytes(); b > peakBytes {
					peakBytes = b
				}
			}
			// One event's blast radius on top of the threshold is the most
			// the overlay can hold before the fold fires.
			limit := int(foldOverlayFraction*float64(totalShards)) + totalShards/2
			if peakOverlay > limit {
				t.Errorf("peak overlay %d shards exceeds the compaction bound %d (total %d)", peakOverlay, limit, totalShards)
			}
			if folds == 0 {
				t.Error("100-step chain never folded: the compaction path is untested dead code")
			}
			// Folded storage re-encodes the same state (same order of
			// magnitude as the base build), and the private overlay — which
			// Bytes() counts at its exact in-memory representation — is
			// bounded by `limit` shards of at worst one full window (an ID,
			// a parent index and a float64 distance a member, and a bitset
			// of at most 8192 bits) or one plain parent row each.
			overlaySlack := int64(limit)*(windowBytes+int64(k)*16+1024) +
				int64(len(env.Landmarks))*int64(n)*nodeBytes
			if peakBytes > 2*baseBytes+overlaySlack {
				t.Errorf("peak snapshot bytes %d exceed 2x the base build's %d plus the overlay bound %d", peakBytes, baseBytes, overlaySlack)
			}
			t.Logf("100 steps: %d folds, peak overlay %d/%d shards, peak bytes %d (base %d)",
				folds, peakOverlay, totalShards, peakBytes, baseBytes)
		})
	}
}

// TestRepairGenerationsAreCopyOnWrite is the overlay table's aliasing
// contract: a repair copies its parent's slot arrays and never writes
// them, so every older generation still held keeps reading exactly what
// it read when it was made. The chain holds its last four generations —
// runs of three and more consecutive repaired ones, where parent and child
// each own a table, and the folds between them — and after every event
// each held generation's CanonicalBytes and OverlayShards must be
// unchanged. The parent is also read end to end (every window, every
// parent row) on another goroutine while the child is repaired from it,
// which is what lets -race see a child that writes a shared slot array.
func TestRepairGenerationsAreCopyOnWrite(t *testing.T) {
	type generation struct {
		s      *Snapshot
		bytes  []byte
		shards int
	}
	for _, compact := range []bool{false, true} {
		name := "exact"
		if compact {
			name = "compact"
		}
		t.Run(name, func(t *testing.T) {
			env := buildEnv(t, 256, 17)
			base := mustBuild(t, env, vicinity.DefaultK(env.N()), compact)
			d := newChainDriver(base)
			rng := rand.New(rand.NewSource(23))
			held := []generation{{base, base.CanonicalBytes(), 0}}
			folds, tabled, longest := 0, 0, 0
			for step := 0; step < 60; step++ {
				parent := held[len(held)-1]
				read := make(chan []byte, 1)
				go func() { read <- parent.s.CanonicalBytes() }()
				if len(d.down) == 0 || (len(d.down) < 8 && rng.Intn(2) == 0) {
					d.failOne(t, rng, false)
				} else {
					d.recoverOne(t, rng)
				}
				if !bytes.Equal(<-read, parent.bytes) {
					t.Fatalf("step %d: the parent read differently while its child was being repaired", step)
				}
				for i, gen := range held {
					if got := gen.s.OverlayShards(); got != gen.shards {
						t.Fatalf("step %d: generation %d back went from %d to %d overlay shards", step, len(held)-i, gen.shards, got)
					}
					if !bytes.Equal(gen.s.CanonicalBytes(), gen.bytes) {
						t.Fatalf("step %d: a later repair changed the route state of generation %d back", step, len(held)-i)
					}
				}
				if d.cur.RepairStats().Folded {
					folds++
					tabled = 0
				} else {
					tabled++
					longest = max(longest, tabled)
				}
				held = append(held, generation{d.cur, d.cur.CanonicalBytes(), d.cur.OverlayShards()})
				held = held[max(0, len(held)-4):]
			}
			if folds == 0 || longest < 3 {
				t.Fatalf("%d folds, longest run of table-owning generations %d: want a fold and a run of at least 3", folds, longest)
			}
		})
	}
}

// TestShardsRebuiltZeroShards pins the zero-shard guard: a RepairStats
// over an empty snapshot (no windows, no rows) must report 0, never NaN.
func TestShardsRebuiltZeroShards(t *testing.T) {
	st := &RepairStats{}
	if got := st.ShardsRebuilt(); got != 0 || math.IsNaN(got) {
		t.Fatalf("ShardsRebuilt on zero shards = %v, want 0", got)
	}
	st = &RepairStats{VicRebuilt: 3, VicTotal: 10, RowsRebuilt: 1, RowsTotal: 10}
	if got := st.ShardsRebuilt(); got != 0.2 {
		t.Fatalf("ShardsRebuilt = %v, want 0.2", got)
	}
}

// TestApplyRecoveriesErrors pins the error cases: already-alive links,
// weights that are negative or not finite, self-loops and empty sets are
// caller mistakes.
func TestApplyRecoveriesErrors(t *testing.T) {
	env := buildEnv(t, 96, 2)
	base := mustBuild(t, env, vicinity.DefaultK(env.N()), false)
	if _, err := base.ApplyRecoveries(nil); err == nil {
		t.Error("empty restore set should error")
	}
	if _, err := base.ApplyRecoveries([]graph.WeightedLink{{U: 3, V: 3, W: 1}}); err == nil {
		t.Error("self-loop should error")
	}
	// An edge that exists cannot be restored.
	u := graph.NodeID(0)
	e := env.G.Neighbors(u)[0]
	if _, err := base.ApplyRecoveries([]graph.WeightedLink{{U: u, V: e.To, W: e.Weight}}); err == nil {
		t.Error("already-alive link should error")
	}
	// Fail a link, then try restoring it with a weight that is not
	// positive and finite, or at two weights in one event.
	key := (graph.EdgeKey{U: u, V: e.To}).Norm()
	rep, err := base.ApplyFailures([]graph.EdgeKey{key})
	if err != nil {
		t.Fatalf("ApplyFailures: %v", err)
	}
	for _, w := range []float64{-1, 0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := rep.ApplyRecoveries([]graph.WeightedLink{{U: key.U, V: key.V, W: w}}); err == nil {
			t.Errorf("weight %v should error", w)
		}
	}
	if _, err := rep.ApplyRecoveries([]graph.WeightedLink{{U: key.U, V: key.V, W: e.Weight}, {U: key.V, V: key.U, W: e.Weight + 1}}); err == nil {
		t.Error("one link at two weights should error")
	}
	// And the round trip works with the true weight, given twice.
	back, err := rep.ApplyRecoveries([]graph.WeightedLink{{U: key.U, V: key.V, W: e.Weight}, {U: key.V, V: key.U, W: e.Weight}})
	if err != nil {
		t.Fatalf("ApplyRecoveries: %v", err)
	}
	if !bytes.Equal(back.CanonicalBytes(), base.CanonicalBytes()) {
		t.Error("fail+recover round trip did not restore the base route state")
	}
}
