package forward_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"disco/internal/core"
	"disco/internal/dynamics"
	"disco/internal/forward"
	"disco/internal/graph"
	"disco/internal/snapshot"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

var updateGoldens = flag.Bool("update", false, "rewrite the golden files under testdata/ with current output")

// buildEnv builds one converged environment plus its snapshot in the
// requested storage regime — the same shape the serve tests use.
func buildEnv(t testing.TB, n int, seed int64, compact bool) (*static.Env, *snapshot.Snapshot, *core.NDDisco) {
	t.Helper()
	g := topology.GnmAvgDeg(rand.New(rand.NewSource(seed)), n, 8)
	env := static.NewEnv(g, seed)
	build := snapshot.Build
	if compact {
		build = snapshot.BuildCompact
	}
	base, err := build(g, vicinity.DefaultK(n), env.Landmarks)
	if err != nil {
		t.Fatalf("snapshot build: %v", err)
	}
	return env, base, core.NewDisco(env, core.WithSeed(seed)).ND
}

// hashRoute folds one (ok, route) answer into the digest.
func hashRoute(h hash.Hash, route []graph.NodeID, ok bool) {
	var buf [4]byte
	if !ok {
		h.Write([]byte{0xff})
		return
	}
	h.Write([]byte{1})
	binary.LittleEndian.PutUint32(buf[:], uint32(len(route)))
	h.Write(buf[:])
	for _, v := range route {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
}

// checkPairs routes every given pair on both implementations, in both
// packet phases, asserting byte identity and folding the table answers
// into the digest.
func checkPairs(t *testing.T, label string, h hash.Hash, nd *core.NDDisco, fr *forward.Router, pairs [][2]graph.NodeID) {
	t.Helper()
	for _, pr := range pairs {
		s, d := pr[0], pr[1]
		for _, later := range []bool{false, true} {
			var want []graph.NodeID
			var wantOK bool
			if later {
				want, wantOK = nd.RepairedLaterRoute(s, d)
			} else {
				want, wantOK = nd.RepairedFirstRoute(s, d)
			}
			var got []graph.NodeID
			var gotOK bool
			if later {
				got, gotOK = fr.RepairedLaterRoute(s, d)
			} else {
				got, gotOK = fr.RepairedFirstRoute(s, d)
			}
			if wantOK != gotOK || fmt.Sprint(want) != fmt.Sprint(got) {
				t.Fatalf("%s: pair %d->%d later=%v: tables (%v, %v) != fork-and-walk (%v, %v)",
					label, s, d, later, got, gotOK, want, wantOK)
			}
			hashRoute(h, got, gotOK)
		}
	}
}

// allPairs enumerates every ordered pair of an n-node graph.
func allPairs(n int) [][2]graph.NodeID {
	out := make([][2]graph.NodeID, 0, n*n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			out = append(out, [2]graph.NodeID{graph.NodeID(s), graph.NodeID(d)})
		}
	}
	return out
}

// samplePairs draws m pairs from rng.
func samplePairs(rng *rand.Rand, n, m int) [][2]graph.NodeID {
	out := make([][2]graph.NodeID, m)
	for i := range out {
		out[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
	}
	return out
}

// stormEvent drives one deterministic fail/recover event (the serve race
// suite's storm shape) and returns that event's repair stats.
func stormEvent(t *testing.T, tl *dynamics.Timeline, edges []graph.EdgeKey, erng *rand.Rand, ev int) *snapshot.RepairStats {
	t.Helper()
	var st *snapshot.RepairStats
	var err error
	if tl.DownCount() == 0 || erng.Intn(2) == 0 {
		var link graph.EdgeKey
		for {
			link = edges[erng.Intn(len(edges))]
			if !tl.IsDown(link) {
				break
			}
		}
		st, err = tl.Fail([]graph.EdgeKey{link})
	} else {
		down := tl.Down()
		st, err = tl.Recover(down[erng.Intn(len(down)):][:1])
	}
	if err != nil {
		t.Fatalf("storm event %d: %v", ev, err)
	}
	return st
}

// TestForwardEquivalence is the tentpole's correctness pin: every route
// the tables answer must be byte-identical to core.NDDisco's
// repaired fork-and-walk — on the base snapshot (all pairs), and on every
// snapshot of a 24-event fail/recover storm with the tables Derive'd per
// event through blast-radius invalidation (sampled pairs per epoch) — in
// both storage regimes and both packet phases. A golden digest of the
// table answers at n=256 additionally pins the routes themselves, so the
// two implementations cannot drift in lockstep unnoticed.
func TestForwardEquivalence(t *testing.T) {
	const (
		n      = 256
		seed   = 1
		events = 24
		npairs = 2000
	)
	var goldenOut string
	for _, regime := range []struct {
		name    string
		compact bool
	}{{"exact", false}, {"compact", true}} {
		env, base, nd := buildEnv(t, n, seed, regime.compact)
		tbls := forward.Compile(base, env.Landmarks, env.LMOf)
		h := sha256.New()

		checkPairs(t, regime.name+"/base", h, nd.ForkRepaired(base), tbls.NewRouter(), allPairs(n))

		tl := dynamics.NewTimeline(base)
		edges := env.G.EdgeList()
		erng := rand.New(rand.NewSource(seed * 13))
		prng := rand.New(rand.NewSource(seed * 7))
		for ev := 0; ev < events; ev++ {
			st := stormEvent(t, tl, edges, erng, ev)
			tbls = tbls.Derive(tl.Snapshot(), st)
			label := fmt.Sprintf("%s/event%d(%d links down)", regime.name, ev, tl.DownCount())
			checkPairs(t, label, h, nd.ForkRepaired(tl.Snapshot()), tbls.NewRouter(), samplePairs(prng, n, npairs))
		}
		goldenOut += fmt.Sprintf("%s %x\n", regime.name, h.Sum(nil))
	}

	path := filepath.Join("testdata", "routes_gnm256.golden")
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(goldenOut), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./internal/forward -update): %v", err)
	}
	if goldenOut != string(want) {
		t.Errorf("route digests drifted from %s.\n--- want ---\n%s--- got ---\n%s\n(if the change is intended, regenerate with -update)",
			path, want, goldenOut)
	}
}

// TestForwardDeriveInvalidation pins the invalidation contract from the
// outside: Derive drops exactly the event's touched shards — no fewer (a
// stale table would answer pre-event routes) and no more (recompiling
// untouched shards would defeat the blast-radius economics).
func TestForwardDeriveInvalidation(t *testing.T) {
	const (
		n    = 256
		seed = 3
	)
	env, base, nd := buildEnv(t, n, seed, false)
	tbls := forward.Compile(base, env.Landmarks, env.LMOf)
	tbls.Precompile()
	nodes, rows := tbls.CompiledShards()
	if nodes != n || rows != len(env.Landmarks) {
		t.Fatalf("precompiled %d/%d shards, want %d/%d", nodes, rows, n, len(env.Landmarks))
	}

	tl := dynamics.NewTimeline(base)
	st, err := tl.Fail(env.G.EdgeList()[:1])
	if err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if len(st.VicTouched) == 0 {
		t.Fatal("a failed link must touch at least its endpoints' windows")
	}
	der := tbls.Derive(tl.Snapshot(), st)
	dn, dr := der.CompiledShards()
	if want := n - len(st.VicTouched); dn != want {
		t.Errorf("derived tables hold %d node tables, want %d (%d invalidated)", dn, want, len(st.VicTouched))
	}
	if want := len(env.Landmarks) - len(st.RowsTouched); dr != want {
		t.Errorf("derived tables hold %d rows, want %d (%d invalidated)", dr, want, len(st.RowsTouched))
	}
	// The parent tables must stay fully installed and valid.
	if pn, pr := tbls.CompiledShards(); pn != n || pr != len(env.Landmarks) {
		t.Errorf("Derive disturbed the parent tables: %d/%d shards", pn, pr)
	}
	// Derive rebinds: the derived tables route on the failed snapshot, and
	// the parent tables still on the base.
	checkPairs(t, "derived", sha256.New(), nd.ForkRepaired(tl.Snapshot()), der.NewRouter(), allPairs(n))
	checkPairs(t, "parent", sha256.New(), nd.ForkRepaired(base), tbls.NewRouter(), allPairs(n))
}

// TestForwardZeroAlloc pins the acceptance criterion "zero allocations
// per lookup": with every shard installed, AppendRoute into a
// steady-state buffer allocates nothing on any pair/phase of the sample.
func TestForwardZeroAlloc(t *testing.T) {
	const (
		n    = 256
		seed = 1
	)
	env, base, _ := buildEnv(t, n, seed, false)
	tbls := forward.Compile(base, env.Landmarks, env.LMOf)
	tbls.Precompile()
	r := tbls.NewRouter()
	pairs := samplePairs(rand.New(rand.NewSource(seed)), n, 512)
	buf := make([]graph.NodeID, 0, 256)
	later := false
	// Warm the scratch buffers past their steady-state capacity first:
	// AllocsPerRun's own warm-up call covers only its first pair.
	for _, pr := range pairs {
		buf, _ = r.AppendRoute(buf[:0], pr[0], pr[1], later)
		later = !later
	}
	i := 0
	avg := testing.AllocsPerRun(2*len(pairs), func() {
		pr := pairs[i%len(pairs)]
		buf, _ = r.AppendRoute(buf[:0], pr[0], pr[1], i%2 == 1)
		i++
	})
	if avg != 0 {
		t.Errorf("AppendRoute allocates %.2f times per query on installed tables, want 0", avg)
	}
}
