package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"disco/internal/bits"
	"disco/internal/graph"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

// compactDigest hashes every encoded section of a compact store: the window
// blob and its offsets, the per-window lengths (nil on a uniform store) and
// radii, and the forest rows.
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
// were written when the distance section became the window's own column
// (levels on the unit-weight maps, float64 bits on the geometric one) and
// must not change with any codec or encoder optimisation — only with a
// deliberate format change.
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
		}, "eb1ad1bae8ba04b760d5eb447371dec6de75640c77f80371ab392c99ae9ab1d9"},
		{"gnm-256", func(t *testing.T) *Snapshot {
			env := buildEnv(t, 256, 1)
			return mustBuild(t, env, vicinity.DefaultK(env.N()), true)
		}, "f4c121e55e564fde8ed9bc55ead5caa7c0835a2770d4a48a43443f80eaccd219"},
		{"geometric-256", func(t *testing.T) *Snapshot {
			env := buildGeoEnv(t, 256, 1)
			return mustBuild(t, env, vicinity.DefaultK(env.N()), true)
		}, "a10de90b1eb0c779690504857d04aedb4a46585cafbc3419e53698d428e63ef4"},
		{"folded-chain-head", func(t *testing.T) *Snapshot { return foldedChainHead(t, true) }, "6580caefdc0c6e320034749985f6be9c8a39ee502513b6fd5006be82ca7a7d26"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := compactDigest(t, tc.snap(t)); got != tc.want {
				t.Errorf("compact encoding digest %s, want %s", got, tc.want)
			}
		})
	}
}

// FuzzCompactWindow round-trips one random window through the wire format:
// level or float form, 0..k members (fewer than k is a shortfall window, so
// the store carries per-window lengths), IDs with gaps up to spread, any
// parent index or the owner's -1, and levels or float64 distances anywhere
// from subnormal to huge. encodedWindowBytes must be the byte count
// encodeWindow writes, the decoded window must be the input column for
// column and in the same form, and windowIndex must find every member.
// The lazy decode a Reader runs — member IDs and membership, then the
// parent and distance columns, into a scratch that held another window —
// must answer Find after its first pass and be the fresh decode after its
// second. The
// blob is read where it ends (the reader's byte path) or with padding past
// it (the word path).
func FuzzCompactWindow(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(0), true, uint8(0), false)
	f.Add(int64(2), uint16(1), uint16(1), true, uint8(3), false)
	f.Add(int64(3), uint16(40), uint16(40), true, uint8(5), true)
	f.Add(int64(4), uint16(40), uint16(17), false, uint8(200), false)
	f.Add(int64(5), uint16(300), uint16(299), false, uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, k, size uint16, levels bool, spread uint8, pad bool) {
		rng := rand.New(rand.NewSource(seed))
		kk := int(k % 512)
		m := int(size) % (kk + 1)
		ids, parent := make([]graph.NodeID, m), make([]int32, m)
		next := graph.NodeID(rng.Intn(1 + int(spread)))
		for i := range ids {
			ids[i] = next
			next += 1 + graph.NodeID(rng.Intn(1+int(spread)))
		}
		for i := range parent {
			parent[i] = int32(rng.Intn(m+1)) - 1
		}
		n := int(next) + rng.Intn(1+int(spread))
		sc := vicinity.NewScratch(n, levels)
		copy(sc.Refill(m), ids)
		sc.Seal()
		wantParent, level, dist := sc.Columns()
		copy(wantParent, parent)
		top := 1 + rng.Intn(64)
		for i := range level {
			level[i] = uint16(rng.Intn(top))
		}
		for i := range dist {
			dist[i] = math.Ldexp(rng.Float64(), rng.Intn(2100)-1075)
		}
		sc.Finish()
		want := sc.Window()
		cs := &compactStore{n: n, k: kk, levels: levels, idWidth: bits.Width(n), pWidth: bits.Width(kk + 1)}
		var w bits.Writer
		cs.encodeWindow(&w, want)
		blob := w.Bytes()
		if got := cs.encodedWindowBytes(want); got != int64(len(blob)) {
			t.Fatalf("encodedWindowBytes %d, encodeWindow wrote %d", got, len(blob))
		}
		cs.vicOff = []int64{0, int64(len(blob))}
		if pad {
			blob = append(blob, make([]byte, 8)...)
		}
		cs.vicBlob, cs.radii = blob, []float64{want.Radius()}
		if m != kk {
			cs.vicLen = []int32{int32(m)}
		}
		if diff := sameWindow(cs.window(0), want); diff != "" {
			t.Fatalf("decoded window: %s", diff)
		}
		// The lazy path a Reader's slot takes, into a scratch that held a
		// bigger window: member IDs and membership first, then the rest.
		lazy := vicinity.NewScratch(n, levels)
		junk := lazy.Refill(kk + 3)
		for i := range junk {
			junk[i] = graph.NodeID(3 * i)
		}
		lazy.Seal()
		lazy.Columns()
		lazy.Finish()
		r := cs.decodeIDs(lazy, 0)
		for i, id := range ids {
			if got := lazy.Window().Find(id); got != i {
				t.Fatalf("after the ID pass, Find(%d) = %d, want %d", id, got, i)
			}
		}
		if lazy.Window().Size() != m || m > 0 && lazy.Window().Contains(ids[m-1]+1) {
			t.Fatalf("after the ID pass the window has %d members, want %d", lazy.Window().Size(), m)
		}
		cs.decodeColumns(lazy, &r, 0)
		if diff := sameWindow(lazy.Window(), cs.window(0)); diff != "" {
			t.Fatalf("lazily decoded window: %s", diff)
		}
		for i, id := range ids {
			if got := cs.windowIndex(0, id); got != i {
				t.Fatalf("windowIndex(%d) = %d, want %d", id, got, i)
			}
		}
	})
}
