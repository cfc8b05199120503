package snapshot

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"

	"disco/internal/graph"
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
// automatic chain folds. Failures are drawn non-disconnecting so the
// from-scratch comparison build stays possible at every step.
func TestSnapshotChainEquivalence(t *testing.T) {
	for _, compact := range []bool{false, true} {
		name := "exact"
		if compact {
			name = "compact"
		}
		t.Run(name, func(t *testing.T) {
			env := buildEnv(t, 384, 11)
			k := vicinity.DefaultK(env.N())
			base := mustBuild(t, env, k, compact)
			build := Build
			if compact {
				build = BuildCompact
			}

			d := newChainDriver(base)
			rng := rand.New(rand.NewSource(31))
			folded := false
			for step := 0; step < 28; step++ {
				// Bias toward failures early so recoveries have stock, and
				// interleave so repair-of-repair and recover-of-repair chains
				// both occur.
				if len(d.down) == 0 || (len(d.down) < 10 && rng.Intn(3) != 0) {
					d.failOne(t, rng, true)
				} else {
					d.recoverOne(t, rng)
				}
				if st := d.cur.RepairStats(); st != nil && st.Folded {
					folded = true
				}
				fresh, err := build(d.cur.Graph(), k, env.Landmarks)
				if err != nil {
					t.Fatalf("step %d: from-scratch rebuild: %v", step, err)
				}
				if !bytes.Equal(d.cur.CanonicalBytes(), fresh.CanonicalBytes()) {
					t.Fatalf("step %d (down=%d): chained snapshot differs from a from-scratch build", step, len(d.down))
				}
			}
			if len(d.down) == 0 {
				t.Error("sequence never held a failed link — not an interleaved chain")
			}
			_ = folded // folding is asserted by TestSnapshotChainBounded
		})
	}
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
			// bounded by `limit` shards of at worst one full window or one
			// plain parent row each.
			overlaySlack := int64(limit)*(setBytes+int64(k)*entryBytes) +
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
// negative weights, self-loops and empty sets are caller mistakes.
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
	// Fail a link, then try restoring it with a negative weight.
	key := (graph.EdgeKey{U: u, V: e.To}).Norm()
	rep, err := base.ApplyFailures([]graph.EdgeKey{key})
	if err != nil {
		t.Fatalf("ApplyFailures: %v", err)
	}
	if _, err := rep.ApplyRecoveries([]graph.WeightedLink{{U: key.U, V: key.V, W: -1}}); err == nil {
		t.Error("negative weight should error")
	}
	// And the round trip works with the true weight.
	back, err := rep.ApplyRecoveries([]graph.WeightedLink{{U: key.U, V: key.V, W: e.Weight}})
	if err != nil {
		t.Fatalf("ApplyRecoveries: %v", err)
	}
	if !bytes.Equal(back.CanonicalBytes(), base.CanonicalBytes()) {
		t.Error("fail+recover round trip did not restore the base route state")
	}
}
