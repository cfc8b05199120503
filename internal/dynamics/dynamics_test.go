package dynamics

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"disco/internal/graph"
	"disco/internal/snapshot"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

func buildBase(t *testing.T, n int, seed int64) (*static.Env, *snapshot.Snapshot) {
	t.Helper()
	g := topology.GnmAvgDeg(rand.New(rand.NewSource(seed)), n, 8)
	env := static.NewEnv(g, seed)
	s, err := snapshot.Build(g, vicinity.DefaultK(n), env.Landmarks)
	if err != nil {
		t.Fatalf("snapshot build: %v", err)
	}
	return env, s
}

// TestTimelineFailRecover drives a small interleaved sequence and checks
// the invariants the experiments rely on: the down list tracks events, the
// base snapshot is never mutated, recovering everything restores the base
// route state, and every event reports blast-radius stats.
func TestTimelineFailRecover(t *testing.T) {
	env, base := buildBase(t, 192, 3)
	tl := NewTimeline(base)
	baseBytes := base.CanonicalBytes()

	var links []graph.EdgeKey
	for u := graph.NodeID(0); len(links) < 4; u++ {
		es := env.G.Neighbors(u)
		links = append(links, (graph.EdgeKey{U: u, V: es[0].To}).Norm())
	}
	st, err := tl.Fail(links[:2])
	if err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if st.FailedLinks != 2 || st.VicRebuilt == 0 {
		t.Fatalf("unexpected fail stats: %+v", st)
	}
	if len(tl.Down()) != 2 {
		t.Fatalf("down list has %d links, want 2", len(tl.Down()))
	}
	if _, err := tl.Fail(links[:1]); err == nil {
		t.Fatal("failing an already-down link must error")
	}
	if _, err := tl.Recover([]graph.EdgeKey{links[3]}); err == nil {
		t.Fatal("recovering an up link must error")
	}
	st, err = tl.Fail(links[2:])
	if err != nil {
		t.Fatalf("Fail (second batch): %v", err)
	}
	if st.FailedLinks != 2 {
		t.Fatalf("second fail stats: %+v", st)
	}
	st, err = tl.Recover(tl.Down())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if st.RestoredLinks != 4 || len(tl.Down()) != 0 {
		t.Fatalf("recover stats %+v, down=%d", st, len(tl.Down()))
	}
	if !bytes.Equal(tl.Snapshot().CanonicalBytes(), baseBytes) {
		t.Fatal("recovering every link did not restore the base route state")
	}
	if !bytes.Equal(base.CanonicalBytes(), baseBytes) {
		t.Fatal("the base snapshot was mutated by the timeline")
	}
}

// TestTimelineDownDefensiveCopy is the regression test for the shared
// Down() slice bug: the returned slice used to alias the timeline's
// internal sorted down list, so a caller that appended to or reordered it
// corrupted the bookkeeping. Down() now returns a defensive copy —
// Recover(tl.Down()) plus arbitrary caller-side mutation of the returned
// slice must leave the chain consistent and land back on the base state.
func TestTimelineDownDefensiveCopy(t *testing.T) {
	env, base := buildBase(t, 192, 3)
	tl := NewTimeline(base)
	baseBytes := base.CanonicalBytes()

	var links []graph.EdgeKey
	for u := graph.NodeID(0); len(links) < 3; u++ {
		es := env.G.Neighbors(u)
		links = append(links, (graph.EdgeKey{U: u, V: es[0].To}).Norm())
	}
	if _, err := tl.Fail(links); err != nil {
		t.Fatalf("Fail: %v", err)
	}

	// Mutating the returned slice must not touch the timeline's view.
	d := tl.Down()
	d[0], d[1] = d[1], d[0]
	d = append(d, graph.EdgeKey{U: 190, V: 191})
	_ = d
	if tl.DownCount() != 3 {
		t.Fatalf("DownCount = %d after caller-side mutation, want 3", tl.DownCount())
	}
	for _, l := range links {
		if !tl.IsDown(l) {
			t.Fatalf("link %v lost from the down list after caller-side mutation", l)
		}
	}

	// The Recover(tl.Down()) idiom with concurrent caller-side writes to
	// the passed slice's backing array: the recovery must consume the values
	// it was handed and fully restore the base.
	all := tl.Down()
	if _, err := tl.Recover(all); err != nil {
		t.Fatalf("Recover(Down()): %v", err)
	}
	all[0] = graph.EdgeKey{U: 1, V: 1} // scribble over the consumed slice
	if tl.DownCount() != 0 {
		t.Fatalf("DownCount = %d after recovering everything, want 0", tl.DownCount())
	}
	if !bytes.Equal(tl.Snapshot().CanonicalBytes(), baseBytes) {
		t.Fatal("recover-all after caller-side mutation did not restore the base route state")
	}
	// A second Down() call sees fresh, unaliased storage.
	if got := tl.Down(); len(got) != 0 {
		t.Fatalf("Down() after recover-all = %v, want empty", got)
	}
}

// TestTimelineRejectsUnknownLink: Fail answers a link the base topology
// does not hold, an endpoint outside [0, n) included, with an error, and
// never panics; the timeline is left as it was.
func TestTimelineRejectsUnknownLink(t *testing.T) {
	const n = 16
	g := topology.Ring(n)
	env := static.NewEnv(g, 1)
	base, err := snapshot.Build(g, vicinity.DefaultK(n), env.Landmarks)
	if err != nil {
		t.Fatalf("snapshot build: %v", err)
	}
	tl := NewTimeline(base)
	for _, link := range []graph.EdgeKey{
		{U: 0, V: 8}, {U: 1, V: 1}, {U: -1, V: 3}, {U: 3, V: -1},
		{U: 16, V: 17}, {U: 3, V: 40}, {U: 40, V: 3}, {U: 15, V: 16},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Fail(%v) panicked: %v", link, r)
				}
			}()
			if _, err := tl.Fail([]graph.EdgeKey{link}); err == nil {
				t.Errorf("Fail(%v) on a 16-node ring: no error", link)
			}
		}()
	}
	if tl.DownCount() != 0 || tl.Snapshot() != base {
		t.Fatalf("rejected links changed the timeline: %d down", tl.DownCount())
	}
}

func TestMessageModel(t *testing.T) {
	m := MessageModel{PerVicEntry: 2, PerRowNode: 0.5, CalN: 256}
	st := &snapshot.RepairStats{VicEntriesChanged: 30, RowNodesChanged: 200}
	got := m.Messages(st)
	want := 2.0*30 + 0.5*200
	if got != want {
		t.Fatalf("Messages = %v, want %v", got, want)
	}
	if m.Messages(nil) != 0 {
		t.Fatal("nil stats must price to 0")
	}
}

// TestAppendJoin pins the one join rule every composed route is laid by:
// the joint node is dropped, an immediate backtrack across it collapses,
// and nothing below base is read or trimmed.
func TestAppendJoin(t *testing.T) {
	for _, tc := range []struct {
		name    string
		dst     []graph.NodeID
		base    int
		p, want []graph.NodeID
	}{
		{"joint dropped", []graph.NodeID{1, 2, 3}, 0, []graph.NodeID{3, 4}, []graph.NodeID{1, 2, 3, 4}},
		{"backtrack collapses", []graph.NodeID{1, 2, 3}, 0, []graph.NodeID{3, 2, 5}, []graph.NodeID{1, 2, 5}},
		{"one-node segments", []graph.NodeID{7}, 0, []graph.NodeID{7}, []graph.NodeID{7}},
		{"behind a prefix", []graph.NodeID{9, 2, 1, 2}, 2, []graph.NodeID{2, 1, 6}, []graph.NodeID{9, 2, 1, 6}},
		{"no trim below base", []graph.NodeID{9, 2, 3}, 2, []graph.NodeID{3, 2, 5}, []graph.NodeID{9, 2, 3, 2, 5}},
	} {
		if got := AppendJoin(slices.Clone(tc.dst), tc.base, tc.p); !slices.Equal(got, tc.want) {
			t.Errorf("%s: AppendJoin(%v, %d, %v) = %v, want %v", tc.name, tc.dst, tc.base, tc.p, got, tc.want)
		}
	}
}

// TestAppendJoinPanicsOnGap: segments that do not meet, or an empty first
// segment, are a caller bug.
func TestAppendJoinPanicsOnGap(t *testing.T) {
	for _, tc := range []struct {
		dst  []graph.NodeID
		base int
	}{{[]graph.NodeID{1, 2}, 0}, {[]graph.NodeID{3}, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendJoin(%v, %d, [3 4]) did not panic", tc.dst, tc.base)
				}
			}()
			AppendJoin(tc.dst, tc.base, []graph.NodeID{3, 4})
		}()
	}
}
