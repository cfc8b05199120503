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

// foldedChainHead drives an n=256 chain to a fold with a variable window
// length: one node is cut off in the first event (its window shrinks to
// itself), then two single non-bridge links fail and the head is folded.
// A compact fold re-encodes the overlaid windows and copies every other
// window's encoded bytes as a raw range. The draws depend only on the
// topology, so both regimes reach the same head.
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
	for range 2 {
		d.failOne(t, rng, true)
	}
	folded := d.cur.fold()
	if cs, ok := folded.store.(*compactStore); ok && cs.vicLen == nil {
		t.Fatal("folded head has uniform windows; want a cut-off node's short window")
	}
	return folded
}

// TestCompactEncodingPinned pins the compact wire format bit for bit.
// CanonicalBytes compares decoded entries, so it cannot see an encoder
// that round-trips but lays down different bits; these digests can. They
// were written when each window's ID stream was cut into blocks under a
// fixed-width head (the distance section is the window's own column:
// levels on the unit-weight maps, float64 bits on the geometric one) and
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
		}, "5bf3ba4374c8c0e02222f0c525dd9206765b72d4d7e76ced95d76373a62473ff"},
		{"gnm-256", func(t *testing.T) *Snapshot {
			env := buildEnv(t, 256, 1)
			return mustBuild(t, env, vicinity.DefaultK(env.N()), true)
		}, "7b02c59e1d470f6f42d9219a93119c232f61a839e13c9009e57419f29469469c"},
		{"geometric-256", func(t *testing.T) *Snapshot {
			env := buildGeoEnv(t, 256, 1)
			return mustBuild(t, env, vicinity.DefaultK(env.N()), true)
		}, "b82ac9d0c94bb4d62c75973a054ab3c49590cc6a83ddfad4ac5f552cb85652c7"},
		{"folded-chain-head", func(t *testing.T) *Snapshot { return foldedChainHead(t, true) }, "ff1593418c149655127a9ecbfafdf06c0504a2461c429837328657ccf775bc62"},
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
// encodeWindow writes, and the decoded window must be the input column for
// column and in the same form, also when decoded into a scratch that held a
// bigger window. The pointed reads must agree with the decode without
// decoding: windowIndex with Window.Find on every member, on each
// member's neighbouring IDs and on random IDs, and the pointed ID, Parent
// and Dist of every member with its columns. The seeds hold windows of 1,
// S-1, S, S+1 and 2S+1 members (S = blockLen) in both forms. The blob is
// read where it ends (the reader's byte path) or with padding past it (the
// word path).
func FuzzCompactWindow(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(0), true, uint8(0), false)
	f.Add(int64(2), uint16(1), uint16(1), true, uint8(3), false)
	f.Add(int64(3), uint16(40), uint16(40), true, uint8(5), true)
	f.Add(int64(4), uint16(40), uint16(17), false, uint8(200), false)
	f.Add(int64(5), uint16(300), uint16(299), false, uint8(1), true)
	for i, m := range []uint16{1, blockLen - 1, blockLen, blockLen + 1, 2*blockLen + 1} {
		for _, levels := range []bool{true, false} {
			f.Add(int64(6+i), m+3, m, levels, uint8(9*i), i%2 == 0)
		}
	}
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
		cs := newCompactLayout(n, kk, levels)
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
		if diff := sameWindow(cs.window(0, nil), want); diff != "" {
			t.Fatalf("decoded window: %s", diff)
		}
		// A decode into a scratch that held a bigger window.
		reused := vicinity.NewScratch(n, levels)
		junk := reused.Refill(kk + 3)
		for i := range junk {
			junk[i] = graph.NodeID(3 * i)
		}
		reused.Seal()
		reused.Columns()
		reused.Finish()
		if diff := sameWindow(cs.window(0, reused), want); diff != "" {
			t.Fatalf("window decoded into a reused scratch: %s", diff)
		}
		// The pointed reads, against the decoded columns.
		p := cs.pointed(0)
		if p.Size() != m || p.Radius() != want.Radius() {
			t.Fatalf("pointed size/radius (%d, %v), want (%d, %v)", p.Size(), p.Radius(), m, want.Radius())
		}
		probe := func(id graph.NodeID) {
			if got, wantI := cs.windowIndex(0, id), want.Find(id); got != wantI {
				t.Fatalf("windowIndex(%d) = %d, want %d", id, got, wantI)
			}
		}
		for i, id := range ids {
			probe(id)
			probe(id + 1)
			if id > 0 {
				probe(id - 1)
			}
			if got := p.ID(i); got != id {
				t.Fatalf("pointed ID(%d) = %d, want %d", i, got, id)
			}
			if got := p.Parent(i); got != want.Parent(i) {
				t.Fatalf("pointed Parent(%d) = %d, want %d", i, got, want.Parent(i))
			}
			if got := p.Dist(i); got != want.Dist(i) {
				t.Fatalf("pointed Dist(%d) = %v, want %v", i, got, want.Dist(i))
			}
		}
		for range 16 {
			probe(graph.NodeID(rng.Intn(n + 1)))
		}
	})
}
