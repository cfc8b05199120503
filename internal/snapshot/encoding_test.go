package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	mbits "math/bits"
	"math/rand"
	"slices"
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
	cs := s.cs
	if cs == nil || s.ov != nil {
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
	d := newChainDriver(cutChainHead(t, compact, vicinity.DefaultK(256)))
	rng := rand.New(rand.NewSource(3))
	for range 2 {
		d.failOne(t, rng, true)
	}
	folded := d.cur.fold()
	if cs := folded.cs; cs != nil && cs.vicLen == nil {
		t.Fatal("folded head has uniform windows; want a cut-off node's short window")
	}
	return folded
}

// cutChainHead is foldedChainHead's first event: the n=256 base with
// vicinity size k and every link of its lowest-degree non-landmark node
// failed, read through an overlay table that holds that node's one-member
// window.
func cutChainHead(t *testing.T, compact bool, k int) *Snapshot {
	t.Helper()
	env := buildEnv(t, 256, 17)
	base := mustBuild(t, env, k, compact)
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
	if head.OverlayShards() == 0 {
		t.Fatal("the cut chain head reads no overlay")
	}
	return head
}

// TestCompactEncodingPinned pins the compact wire format bit for bit.
// CanonicalBytes compares decoded entries, so it cannot see an encoder
// that round-trips but lays down different bits; these digests can. They
// were written when each window's member IDs became an Elias–Fano code
// (the distance section is the window's own column: levels on the
// unit-weight maps, float64 bits on the geometric one) and must not change
// with any codec or encoder optimisation — only with a deliberate format
// change.
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
		}, "42f56ba703b7af93be4956cd885a5be65f2423ec325d4561d1f65cc850983702"},
		{"gnm-256", func(t *testing.T) *Snapshot {
			env := buildEnv(t, 256, 1)
			return mustBuild(t, env, vicinity.DefaultK(env.N()), true)
		}, "a1fd6d936c0a09e50cb8e0814d3dd1d0a05b9c19f6bb476e56d6635876b210d6"},
		{"geometric-256", func(t *testing.T) *Snapshot {
			env := buildGeoEnv(t, 256, 1)
			return mustBuild(t, env, vicinity.DefaultK(env.N()), true)
		}, "c020af4791ad988b86aa3f1b8a348fde13816aad206237486ab5cdfe7d07c5a9"},
		{"folded-chain-head", func(t *testing.T) *Snapshot { return foldedChainHead(t, true) }, "032e9e148f4362ac107437e72435be607d45204f348e36f7e70520173e4361b6"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := compactDigest(t, tc.snap(t)); got != tc.want {
				t.Errorf("compact encoding digest %s, want %s", got, tc.want)
			}
		})
	}
}

// TestLowBits pins the Elias–Fano split every window's ID code is laid out
// by: L = floor(log2(n/m)) by integer division, and 0 for no members or
// for m >= n, for every n up to 600 and every m up to n+1.
func TestLowBits(t *testing.T) {
	for n := 1; n <= 600; n++ {
		for m := 0; m <= n+1; m++ {
			want := 0
			if m > 0 && m < n {
				want = mbits.Len(uint(n/m)) - 1
			}
			if got := lowBits(n, m); got != want {
				t.Fatalf("lowBits(%d, %d) = %d, want %d", n, m, got, want)
			}
		}
	}
}

// FuzzCompactWindow round-trips one random window through the wire format:
// level or float form, 0..k members (fewer than k is a shortfall window, so
// the store carries per-window lengths), IDs with gaps up to spread in an
// ID space of n, any parent index or the owner's -1, and levels or float64
// distances anywhere from subnormal to huge. shape bends the IDs to the
// Elias–Fano code's edges: its low bits pull the first ID to 0 and push the
// last to n−1, bits 2–3 round n up to a power of two or one past it, and
// bit 4 packs every member into one high bucket where one holds them.
// encodedWindowBytes must be the byte count encodeWindow writes. The
// window is read twice: from a base blob, behind another window's bytes,
// and from an overlay slot, encoded on its own into an event blob as a
// repair lays it (packSlots) over a store of the other distance form. In
// both the decoded window must be the input column for column and in the
// same form, and the pointed reads must agree with it without decoding:
// pointed Find with Window.Find on every member, on each member's
// neighbouring IDs, on random IDs and on the IDs outside [0, n)
// (graph.None, n and n+1), the pointed ID, Parent and Dist of every member
// with its columns, and the pointed AppendPath of every member whose
// parent chain reaches the owner with Window.AppendPath, owner included,
// and AppendMembers (the pointed ID run) and MemberDist with the ID and
// distance columns, AppendMembers behind an entry of dst. The seeds hold
// windows of 0, 1 and n members (n members keep no low bits), every member
// in one bucket, IDs 0 and n−1, and n a power of two and one past it, in
// both forms. The base blob is read where it ends (the reader's byte path)
// or with padding past it (the word path).
func FuzzCompactWindow(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(0), true, uint8(0), false, uint8(0))
	f.Add(int64(2), uint16(1), uint16(1), true, uint8(3), false, uint8(0))
	f.Add(int64(3), uint16(40), uint16(40), true, uint8(5), true, uint8(0))
	f.Add(int64(4), uint16(40), uint16(17), false, uint8(200), false, uint8(0))
	f.Add(int64(5), uint16(300), uint16(299), false, uint8(1), true, uint8(0))
	for i, c := range []struct {
		k, m   uint16
		spread uint8
		shape  uint8
	}{
		{3, 0, 9, 0},        // no members
		{3, 1, 200, 0},      // one member
		{40, 40, 0, 0},      // n members: IDs 0..n-1, L = 0
		{128, 128, 0, 4},    // n members, n a power of two
		{20, 20, 250, 16},   // one high bucket
		{4, 4, 255, 17},     // one high bucket from ID 0
		{151, 151, 12, 3},   // IDs 0 and n-1
		{151, 150, 12, 7},   // IDs 0 and n-1, n a power of two
		{151, 151, 12, 11},  // IDs 0 and n-1, n one past a power of two
		{64, 33, 60, 8},     // n one past a power of two
		{100, 100, 255, 16}, // one bucket of a window whose high array spans 4 words
	} {
		for _, levels := range []bool{true, false} {
			f.Add(int64(6+i), c.k, c.m, levels, c.spread, i%2 == 0, c.shape)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, k, size uint16, levels bool, spread uint8, pad bool, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		kk := int(k % 512)
		m := int(size) % (kk + 1)
		ids, parent := make([]graph.NodeID, m), make([]uint16, m)
		next := graph.NodeID(rng.Intn(1 + int(spread)))
		for i := range ids {
			ids[i] = next
			next += 1 + graph.NodeID(rng.Intn(1+int(spread)))
		}
		for i := range parent {
			parent[i] = uint16(rng.Intn(m+1) - 1) // -1 wraps to the owner's entry
		}
		n := int(next) + rng.Intn(1+int(spread))
		if pow := 1 << mbits.Len(uint(max(n, 1)-1)); shape>>2&3 == 1 {
			n = pow
		} else if shape>>2&3 == 2 {
			n = pow + 1
		}
		if l := lowBits(n, m); shape&16 != 0 && m > 0 && m <= 1<<l { // one full-width bucket
			b, step := graph.NodeID(rng.Intn(n>>l)<<l), (1<<l)/m
			for i := range ids {
				ids[i] = b + graph.NodeID(i*step+rng.Intn(step))
			}
		}
		if shape&1 != 0 && m > 0 {
			for i := m - 1; i >= 0; i-- {
				ids[i] -= ids[0]
			}
		}
		if shape&2 != 0 && m > 0 {
			ids[m-1] = graph.NodeID(n - 1)
		}
		var level []uint16
		var dist []float64
		top, radius := 1+rng.Intn(64), 0.0
		if levels {
			level = make([]uint16, m)
			for i := range level {
				level[i] = uint16(rng.Intn(top))
				radius = max(radius, float64(level[i]))
			}
		} else {
			dist = make([]float64, m)
			for i := range dist {
				dist[i] = math.Ldexp(rng.Float64(), rng.Intn(2100)-1075)
				radius = max(radius, dist[i])
			}
		}
		want := vicinity.FromColumns(n, ids, parent, level, dist, radius)
		cs := newCompactLayout(n, kk, levels)
		var w bits.Writer
		cs.encodeWindow(&w, want)
		enc := slices.Clone(w.Bytes())
		if got := cs.encodedWindowBytes(m, want.Radius()); got != int64(len(enc)) {
			t.Fatalf("encodedWindowBytes %d, encodeWindow wrote %d", got, len(enc))
		}
		// The base store: node 1's window behind a filler that node 0 owns,
		// so that the window sits at a byte offset of the blob.
		filler := make([]byte, 1+rng.Intn(9))
		rng.Read(filler)
		blob := append(filler, enc...)
		cs.vicOff = []int64{0, int64(len(filler)), int64(len(blob))}
		if pad {
			blob = append(blob, make([]byte, 8)...)
		}
		cs.vicBlob, cs.radii = blob, []float64{0, want.Radius()}
		if m != kk {
			cs.vicLen = []int32{0, int32(m)}
		}
		// The overlay slot: the window encoded on its own, laid behind a
		// filler in one event blob (packSlots), over a store of the other
		// distance form, so the slot's own form must decide its reads.
		slots := []encodedWindow{{}, {radius: want.Radius(), size: int32(m), levels: levels}}
		packSlots(slots, [][]byte{filler, enc})
		overlaid := &Snapshot{
			cs: newCompactLayout(n, kk, !levels),
			ov: &overlay{enc: []*encodedWindow{nil, &slots[1]}},
		}
		for _, snap := range []*Snapshot{{cs: cs}, overlaid} {
			checkPointed(t, snap, want, ids, rng)
		}
	})
}

// checkPointed holds FuzzCompactWindow's reads of node 1's window in snap,
// in place, to want, the window it encodes with member IDs ids: the decode,
// pointed Find on every member, on each member's neighbouring IDs, on
// random IDs and on the IDs outside [0, n), pointed ID, Parent and Dist of
// every member, pointed AppendPath of every member whose parent chain
// reaches the owner, and AppendMembers and MemberDist.
func checkPointed(t *testing.T, snap *Snapshot, want *vicinity.Window, ids []graph.NodeID, rng *rand.Rand) {
	t.Helper()
	m, n := len(ids), snap.cs.n
	if diff := sameWindow(snap.Vicinity(1), want); diff != "" {
		t.Fatalf("decoded window: %s", diff)
	}
	p := snap.pointed(1)
	if p.Size() != m || p.Radius() != want.Radius() {
		t.Fatalf("pointed size/radius (%d, %v), want (%d, %v)", p.Size(), p.Radius(), m, want.Radius())
	}
	probe := func(id graph.NodeID) {
		if got, wantI := p.Find(id), want.Find(id); got != wantI {
			t.Fatalf("pointed Find(%d) = %d, want %d", id, got, wantI)
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
	// AppendMembers behind a dst entry, into room that holds junk.
	dst := make([]graph.NodeID, m+9)
	for i := range dst {
		dst[i] = graph.NodeID(3 * i)
	}
	if got := snap.AppendMembers(dst[:1], 1); got[0] != 0 || !slices.Equal(got[1:], ids) {
		t.Fatalf("AppendMembers = %v, want [0] then %v", got, ids)
	}
	for i := range ids {
		if got := snap.MemberDist(1, i); got != want.Dist(i) {
			t.Fatalf("MemberDist(1, %d) = %v, want %v", i, got, want.Dist(i))
		}
	}
	for range 16 {
		probe(graph.NodeID(rng.Intn(n + 1)))
	}
	for _, id := range []graph.NodeID{graph.None, graph.NodeID(n), graph.NodeID(n + 1)} {
		probe(id)
	}
	// The pointed path of every member whose parent chain reaches the
	// owner: random parents may also close a cycle, where no path is.
	for i := range ids {
		j, hops := i, 0
		for ; j >= 0 && hops <= m; hops++ {
			j = want.Parent(j)
		}
		if j >= 0 {
			continue
		}
		if got, wantPath := p.AppendPath(nil, i), want.AppendPath(nil, i); !slices.Equal(got, wantPath) {
			t.Fatalf("pointed AppendPath(%d) = %v, want %v", i, got, wantPath)
		}
	}
}
