package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"disco/internal/graph"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

// compactDigest hashes every encoded section of a compact store: the window
// blob and its offsets, the per-window lengths (nil on a uniform store) and
// quantized radii, and the forest rows.
func compactDigest(t *testing.T, s *Snapshot) string {
	t.Helper()
	cs, ok := s.store.(*compactStore)
	if !ok || s.ov != nil {
		t.Fatal("want a compact snapshot with no overlay table")
	}
	h := sha256.New()
	h.Write(cs.vicBlob)
	for _, section := range []any{cs.vicOff, cs.vicLen, cs.radii} {
		if err := binary.Write(h, binary.LittleEndian, section); err != nil {
			t.Fatal(err)
		}
	}
	h.Write(cs.forest)
	return hex.EncodeToString(h.Sum(nil))
}

// foldedChainHead drives an n=256 chain until it folds with a variable
// window length: one node is cut off in the first event (its window
// shrinks to itself), then single non-bridge links fail until the overlay
// crosses the fold threshold. A compact fold re-encodes the overlaid
// windows and copies every other window's encoded bytes as a raw range.
// The draws depend only on the topology, so both regimes reach the same
// head.
func foldedChainHead(t *testing.T, compact bool) *Snapshot {
	t.Helper()
	env := buildEnv(t, 256, 17)
	base := mustBuild(t, env, vicinity.DefaultK(env.N()), compact)
	cut := graph.None
	for v := graph.NodeID(0); int(v) < env.N(); v++ {
		if !env.IsLM[v] && (cut == graph.None || env.G.Degree(v) < env.G.Degree(cut)) {
			cut = v
		}
	}
	var links []graph.EdgeKey
	for _, e := range env.G.Neighbors(cut) {
		links = append(links, (graph.EdgeKey{U: cut, V: e.To}).Norm())
	}
	head, err := base.ApplyFailures(links)
	if err != nil {
		t.Fatal(err)
	}
	d := newChainDriver(head)
	rng := rand.New(rand.NewSource(3))
	for step := 0; !d.cur.RepairStats().Folded; step++ {
		if step == 200 {
			t.Fatal("chain never folded")
		}
		d.failOne(t, rng, true)
	}
	if cs, ok := d.cur.store.(*compactStore); ok && cs.vicLen == nil {
		t.Fatal("folded head has uniform windows; want a cut-off node's short window")
	}
	return d.cur
}

// TestCompactEncodingPinned pins the compact wire format bit for bit.
// CanonicalBytes compares decoded entries, so it cannot see an encoder
// that round-trips but lays down different bits; these digests can. They
// were written before the codec's word-at-a-time rewrite and must not
// change with any codec or encoder optimisation — only with a deliberate
// format change.
func TestCompactEncodingPinned(t *testing.T) {
	router := topology.RouterLike(rand.New(rand.NewSource(1)), 2048)
	routerEnv := static.NewEnv(router, 1)
	cases := []struct {
		name string
		snap func(t *testing.T) *Snapshot
		want string
	}{
		{"routerlike-2048", func(t *testing.T) *Snapshot {
			return mustBuild(t, routerEnv, vicinity.DefaultK(router.N()), true)
		}, "88715ab07c4aaebef0feafcd968c096ce109915ae410734b801779f9618552d8"},
		{"gnm-256", func(t *testing.T) *Snapshot {
			env := buildEnv(t, 256, 1)
			return mustBuild(t, env, vicinity.DefaultK(env.N()), true)
		}, "2d04c0ec41074ce81a500ee7c9e65e6af6c638ca7b9ca0a4a666e6f52f0010eb"},
		{"folded-chain-head", func(t *testing.T) *Snapshot { return foldedChainHead(t, true) }, "78f30e0dfd86ab2352f17abb59c76dab9fffa70f73594a496f544a08ce05a10d"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := compactDigest(t, tc.snap(t)); got != tc.want {
				t.Errorf("compact encoding digest %s, want %s", got, tc.want)
			}
		})
	}
}
