package snapshot

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"disco/internal/graph"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

func buildEnv(t testing.TB, n int, seed int64) *static.Env {
	t.Helper()
	g := topology.GnmAvgDeg(rand.New(rand.NewSource(seed)), n, 8)
	return static.NewEnv(g, seed)
}

// buildGeoEnv is buildEnv on a geometric map: Euclidean link weights, so
// windows hold float64 distances, not levels.
func buildGeoEnv(t testing.TB, n int, seed int64) *static.Env {
	t.Helper()
	g := topology.Geometric(rand.New(rand.NewSource(seed)), n, 8)
	return static.NewEnv(g, seed)
}

func mustBuild(t testing.TB, env *static.Env, k int, compact bool) *Snapshot {
	t.Helper()
	build := Build
	if compact {
		build = BuildCompact
	}
	s, err := build(env.G, k, env.Landmarks)
	if err != nil {
		t.Fatalf("snapshot build (compact=%v): %v", compact, err)
	}
	return s
}

// TestSnapshotMatchesLegacy pins the snapshot to the lazily computed
// state it replaces: every vicinity window and every landmark-tree path
// must be identical to what the per-instance caches produce.
func TestSnapshotMatchesLegacy(t *testing.T) {
	env := buildEnv(t, 192, 7)
	k := vicinity.DefaultK(env.N())
	s := mustBuild(t, env, k, false)

	if s.K() != k {
		t.Fatalf("K: got %d want %d", s.K(), k)
	}
	for v := 0; v < env.N(); v++ {
		want := &vicinity.MakeWindows(env.G, 1, k)[0]
		vicinity.NewBall(env.G).Fill(want, graph.NodeID(v), k)
		got := s.Vicinity(graph.NodeID(v))
		if got.Size() != want.Size() || got.Radius() != want.Radius() {
			t.Fatalf("vicinity %d: header mismatch", v)
		}
		for i := 0; i < want.Size(); i++ {
			if got.ID(i) != want.ID(i) || got.Parent(i) != want.Parent(i) || got.Dist(i) != want.Dist(i) {
				t.Fatalf("vicinity %d entry %d: got (%d, %d, %v) want (%d, %d, %v)", v, i,
					got.ID(i), got.Parent(i), got.Dist(i), want.ID(i), want.Parent(i), want.Dist(i))
			}
		}
	}

	want := graph.NewSSSP(env.G)
	for _, lm := range env.Landmarks {
		if s.lmRow[lm] < 0 {
			t.Fatalf("missing tree for landmark %d", lm)
		}
		want.Run(lm)
		for v := 0; v < env.N(); v += 7 {
			wantFrom := want.PathTo(graph.NodeID(v))
			slices.Reverse(wantFrom)
			if got := s.AppendPathFrom(nil, lm, graph.NodeID(v)); !slices.Equal(got, wantFrom) {
				t.Fatalf("PathFrom(%d,%d): got %v want %v", lm, v, got, wantFrom)
			}
		}
	}
	for v := 0; v < env.N(); v++ {
		if hasTree := s.lmRow[v] >= 0; hasTree != env.IsLM[v] {
			t.Fatalf("tree for %d: %v, IsLM = %v", v, hasTree, env.IsLM[v])
		}
	}
}

// TestCompactMatchesExact pins the compact encoding to the exact regime:
// member IDs, parents, distances, radii, the distance form and every
// landmark-tree path round-trip exactly — on G(n,m), whose windows hold
// levels, and on a geometric map, whose windows hold float64 distances.
// It runs on a fresh build and on the head of a folded G(n,m) chain, whose
// store has a short window and raw-copied ranges.
func TestCompactMatchesExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		env  *static.Env
	}{{"built", buildEnv(t, 192, 7)}, {"built-geometric", buildGeoEnv(t, 192, 7)}} {
		t.Run(tc.name, func(t *testing.T) {
			k := vicinity.DefaultK(tc.env.N())
			exact := mustBuild(t, tc.env, k, false)
			compact := mustBuild(t, tc.env, k, true)
			if !compact.Compact() || exact.Compact() {
				t.Fatal("Compact() regime flags wrong")
			}
			compareRegimes(t, exact, compact)
		})
	}
	t.Run("folded-chain-head", func(t *testing.T) {
		compareRegimes(t, foldedChainHead(t, false), foldedChainHead(t, true))
	})
}

// sameWindow reports where got differs from want, column for column, or
// "" when they are the same window. Bytes counts a level as 2 bytes and a
// distance as 8, so equal sizes and equal Bytes mean the same form.
func sameWindow(got, want *vicinity.Window) string {
	if got.Size() != want.Size() || got.Radius() != want.Radius() || got.Bytes() != want.Bytes() {
		return fmt.Sprintf("size/radius/bytes (%d, %v, %d), want (%d, %v, %d)", got.Size(), got.Radius(), got.Bytes(), want.Size(), want.Radius(), want.Bytes())
	}
	for i := 0; i < want.Size(); i++ {
		if got.ID(i) != want.ID(i) || got.Parent(i) != want.Parent(i) || got.Dist(i) != want.Dist(i) {
			return fmt.Sprintf("entry %d (%d, %d, %v), want (%d, %d, %v)", i, got.ID(i), got.Parent(i), got.Dist(i), want.ID(i), want.Parent(i), want.Dist(i))
		}
	}
	return ""
}

// compareRegimes checks every read of compact against its exact twin.
func compareRegimes(t *testing.T, exact, compact *Snapshot) {
	n := exact.Graph().N()
	for v := 0; v < n; v++ {
		if diff := sameWindow(compact.Vicinity(graph.NodeID(v)), exact.Vicinity(graph.NodeID(v))); diff != "" {
			t.Fatalf("vicinity %d: %s", v, diff)
		}
		if size, rad := compact.windowMeta(graph.NodeID(v)); size != exact.Vicinity(graph.NodeID(v)).Size() || rad != exact.Vicinity(graph.NodeID(v)).Radius() {
			t.Fatalf("vicinity %d: windowMeta (%d, %v) disagrees with the exact window", v, size, rad)
		}
	}

	// The materialization-free membership probe must agree with the full
	// set in both regimes, including the just-outside-the-window IDs a
	// sequential delta scan is most likely to misjudge — at every v, so
	// the blob's last window, read where fewer than 8 bytes remain, is
	// probed too.
	for v := 0; v < n; v++ {
		set := exact.Vicinity(graph.NodeID(v))
		for w := -1; w <= n; w++ {
			want := set.Contains(graph.NodeID(w))
			if got := compact.VicinityContains(graph.NodeID(v), graph.NodeID(w)); got != want {
				t.Fatalf("compact VicinityContains(%d,%d)=%v want %v", v, w, got, want)
			}
			if got := exact.VicinityContains(graph.NodeID(v), graph.NodeID(w)); got != want {
				t.Fatalf("exact VicinityContains(%d,%d)=%v want %v", v, w, got, want)
			}
		}
	}

	for _, lm := range exact.landmarks {
		for v := 0; v < n; v++ {
			if gp, wp := compact.parentAt(compact.row(lm), graph.NodeID(v)), exact.parentAt(exact.row(lm), graph.NodeID(v)); gp != wp {
				t.Fatalf("Parent(%d,%d): got %d want %d", lm, v, gp, wp)
			}
		}
		for v := 0; v < n; v += 5 {
			if got, want := compact.AppendPathFrom(nil, lm, graph.NodeID(v)), exact.AppendPathFrom(nil, lm, graph.NodeID(v)); !slices.Equal(got, want) {
				t.Fatalf("PathFrom(%d,%d): got %v want %v", lm, v, got, want)
			}
		}
	}
}

// TestBuildDisconnected is the error path the old Build hid behind a panic
// inside a worker goroutine: both regimes must reject a disconnected graph
// with a diagnosable error before any fan-out crashes the process.
func TestBuildDisconnected(t *testing.T) {
	g := graph.New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	g.Finalize()
	for _, build := range []struct {
		name string
		fn   func(*graph.Graph, int, []graph.NodeID) (*Snapshot, error)
	}{{"exact", Build}, {"compact", BuildCompact}} {
		t.Run(build.name, func(t *testing.T) {
			s, err := build.fn(g, 3, []graph.NodeID{0})
			if err == nil {
				t.Fatal("Build on a disconnected graph must return an error")
			}
			if s != nil {
				t.Fatal("failed Build must return a nil snapshot")
			}
			if !strings.Contains(err.Error(), "components") {
				t.Errorf("error should name the component count: %v", err)
			}
		})
	}
}

// TestBuildSingleNode exercises the degenerate boundary (n=1, k=1, the
// node its own landmark) in both regimes.
func TestBuildSingleNode(t *testing.T) {
	g := graph.New(1)
	g.Finalize()
	for _, compact := range []bool{false, true} {
		build := Build
		if compact {
			build = BuildCompact
		}
		s, err := build(g, 1, []graph.NodeID{0})
		if err != nil {
			t.Fatalf("compact=%v: %v", compact, err)
		}
		set := s.Vicinity(0)
		if set.Size() != 1 || set.ID(0) != 0 || set.Parent(0) != -1 || set.Dist(0) != 0 {
			t.Fatalf("compact=%v: vicinity of the only node wrong", compact)
		}
		if p := s.parentAt(s.row(0), 0); p != graph.None {
			t.Fatalf("compact=%v: root parent = %d, want None", compact, p)
		}
	}
}

// TestBuildZeroK pins the k=0 boundary: both regimes must return a
// snapshot with empty vicinities (no worker panic on the empty window).
func TestBuildZeroK(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.Finalize()
	for _, compact := range []bool{false, true} {
		build := Build
		if compact {
			build = BuildCompact
		}
		s, err := build(g, 0, []graph.NodeID{0})
		if err != nil {
			t.Fatalf("compact=%v: %v", compact, err)
		}
		if got := s.Vicinity(1); got.Size() != 0 || got.Contains(1) {
			t.Errorf("compact=%v: k=0 vicinity should be empty, got %d entries", compact, got.Size())
		}
	}
}

// bytesPerNode builds the snapshot for a G(n,m) environment and returns
// its shared footprint per node.
func bytesPerNode(t testing.TB, n int, seed int64, compact bool) float64 {
	env := buildEnv(t, n, seed)
	s := mustBuild(t, env, vicinity.DefaultK(n), compact)
	return float64(s.Bytes()) / float64(n)
}

// TestSnapshotBytesSublinear is the memory-regression guard: snapshot
// bytes per node must grow like the paper's Θ(√(n log n)) state bound,
// not Θ(n), in both storage regimes. A linear-state regression (e.g.
// accidentally storing full trees per node) multiplies bytes/node by
// n2/n1 = 16 between the probed sizes; the √(n log n) law predicts ~4.9x.
// The test rejects anything past halfway to linear.
func TestSnapshotBytesSublinear(t *testing.T) {
	const n1, n2 = 256, 4096
	for _, regime := range []struct {
		name    string
		compact bool
	}{{"exact", false}, {"compact", true}} {
		t.Run(regime.name, func(t *testing.T) {
			b1 := bytesPerNode(t, n1, 1, regime.compact)
			b2 := bytesPerNode(t, n2, 1, regime.compact)
			ratio := b2 / b1
			sqrtLaw := math.Sqrt(float64(n2) * math.Log2(float64(n2)) / (float64(n1) * math.Log2(float64(n1))))
			linear := float64(n2) / float64(n1)
			t.Logf("bytes/node: n=%d %.0f, n=%d %.0f, ratio %.2f (√(n log n) law %.2f, linear %.0f)", n1, b1, n2, b2, ratio, sqrtLaw, linear)
			if ratio > sqrtLaw*1.75 {
				t.Errorf("bytes/node grew %.2fx from n=%d to n=%d; √(n log n) predicts %.2fx — snapshot state is no longer compact", ratio, n1, n2, sqrtLaw)
			}
			if ratio > linear/2 {
				t.Errorf("bytes/node growth %.2fx is within 2x of linear (%.0fx) — Θ(n) state regression", ratio, linear)
			}
		})
	}
}

// TestCompactReduction is the tentpole's acceptance bar: at the standard
// n=4096 probe the compact encoding must undercut the exact footprint by
// at least 40%.
func TestCompactReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds two n=4096 snapshots")
	}
	const n = 4096
	env := buildEnv(t, n, 1)
	k := vicinity.DefaultK(n)
	exact := mustBuild(t, env, k, false)
	compact := mustBuild(t, env, k, true)
	eb, cb := exact.Bytes(), compact.Bytes()
	reduction := 1 - float64(cb)/float64(eb)
	t.Logf("n=%d: exact %.0f bytes/node, compact %.0f bytes/node (%.1f%% reduction)",
		n, float64(eb)/n, float64(cb)/n, 100*reduction)
	if reduction < 0.40 {
		t.Errorf("compact encoding saves only %.1f%% at n=%d; the regime promises >= 40%%", 100*reduction, n)
	}
}

// BenchmarkSnapshotMemory records the snapshot's shared bytes/node and
// build cost at the standard probe sizes in both storage regimes. The
// bytes/node metric is the number the ROADMAP's -full feasibility estimate
// scales up from.
func BenchmarkSnapshotMemory(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		env := buildEnv(b, n, 1)
		k := vicinity.DefaultK(n)
		for _, regime := range []struct {
			name    string
			compact bool
		}{{"exact", false}, {"compact", true}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, regime.name), func(b *testing.B) {
				var s *Snapshot
				for i := 0; i < b.N; i++ {
					s = mustBuild(b, env, k, regime.compact)
				}
				b.ReportMetric(float64(s.Bytes())/float64(n), "bytes/node")
			})
		}
	}
}

// TestParentIndexMatchesSearch pins the parent column every window carries
// — filled through the build's never-cleared position scratch, and read
// back as is by the compact decoder — to a binary search for the parent
// the shortest-path search reports: on every window of a built n=1024
// snapshot, in both regimes.
func TestParentIndexMatchesSearch(t *testing.T) {
	const n = 1024
	env := buildEnv(t, n, 5)
	k := vicinity.DefaultK(n)
	sp := graph.NewSSSP(env.G)
	for _, compact := range []bool{false, true} {
		s := mustBuild(t, env, k, compact)
		for v := graph.NodeID(0); v < n; v++ {
			win := s.Vicinity(v)
			ids := make([]graph.NodeID, win.Size())
			for i := range ids {
				ids[i] = win.ID(i)
			}
			sp.RunK(v, k)
			for i, id := range ids {
				want := -1
				if p := sp.Parent(id); p != graph.None {
					j, ok := slices.BinarySearch(ids, p)
					if !ok {
						t.Fatalf("compact=%v V(%d): parent %d of %d is not a member", compact, v, p, id)
					}
					want = j
				}
				if got := win.Parent(i); got != want {
					t.Fatalf("compact=%v V(%d) entry %d: parent index %d, want %d", compact, v, i, got, want)
				}
			}
		}
	}
}

// TestBuildRefusesWindowsPastTheCap: a vicinity size past
// vicinity.MaxMembers, after the clamp to n, is a caller error in both
// regimes, returned before any search runs.
func TestBuildRefusesWindowsPastTheCap(t *testing.T) {
	g := topology.Line(vicinity.MaxMembers + 2)
	for _, build := range []func(*graph.Graph, int, []graph.NodeID) (*Snapshot, error){Build, BuildCompact} {
		s, err := build(g, vicinity.MaxMembers+1, []graph.NodeID{0})
		if err == nil || !strings.Contains(err.Error(), "65535") {
			t.Fatalf("k = %d on %d nodes: snapshot %v, error %v; want an error naming the limit", vicinity.MaxMembers+1, g.N(), s != nil, err)
		}
	}
}
