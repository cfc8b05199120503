package snapshot

import (
	"math/rand"
	"testing"

	"disco/internal/graph"
	"disco/internal/vicinity"
)

// TestReaderMissDecodesNothing holds a compact Reader to its fill rule: a
// lookup that misses on an owner the Reader does not hold answers through
// the pointed probe and fills no slot, a hit fills exactly one, and further
// reads of that owner, whole window included, fill none. A lookup of an
// overlaid (repaired) window fills nothing either. Over an exact store a
// Reader caches nothing and allocates nothing.
func TestReaderMissDecodesNothing(t *testing.T) {
	env := buildEnv(t, 256, 1)
	k := vicinity.DefaultK(env.N())
	s := mustBuild(t, env, k, true)
	rng := rand.New(rand.NewSource(4))
	// member and stranger return a member of V(v) other than v, and a
	// node that is no member.
	member := func(v graph.NodeID) graph.NodeID {
		win := s.Vicinity(v)
		return win.ID(1 + rng.Intn(win.Size()-1))
	}
	stranger := func(v graph.NodeID) graph.NodeID {
		win := s.Vicinity(v)
		w := graph.NodeID(rng.Intn(env.N()))
		for win.Contains(w) {
			w = (w + 1) % graph.NodeID(env.N())
		}
		return w
	}

	h := s.Reader()
	for v := range graph.NodeID(64) {
		w := stranger(v)
		if win, i := h.VicinityFind(v, w); win != nil || i != -1 {
			t.Fatalf("VicinityFind(%d, %d) = (%v, %d) on a non-member", v, w, win, i)
		}
		if h.VicinityContains(v, w) {
			t.Fatalf("VicinityContains(%d, %d) on a non-member", v, w)
		}
	}
	if h.Cached() != 0 || h.Fills() != 0 {
		t.Fatalf("after misses only the Reader holds %d slots from %d fills, want none", h.Cached(), h.Fills())
	}

	v := graph.NodeID(7)
	w := member(v)
	win, i := h.VicinityFind(v, w)
	if i < 0 || win.ID(i) != w {
		t.Fatalf("VicinityFind(%d, %d) missed a member", v, w)
	}
	if h.Cached() != 1 || h.Fills() != 1 {
		t.Fatalf("after one hit the Reader holds %d slots from %d fills, want 1 from 1", h.Cached(), h.Fills())
	}
	if !h.VicinityContains(v, member(v)) || h.VicinityContains(v, stranger(v)) {
		t.Fatalf("V(%d) from the slot disagrees with the store", v)
	}
	if _, j := h.VicinityFind(v, member(v)); j < 0 {
		t.Fatalf("V(%d) from the slot misses a member", v)
	}
	if diff := sameWindow(h.Vicinity(v), s.Vicinity(v)); diff != "" {
		t.Fatalf("V(%d) from the slot: %s", v, diff)
	}
	if h.Cached() != 1 || h.Fills() != 1 {
		t.Fatalf("reads of a held owner made the Reader hold %d slots from %d fills, want 1 from 1", h.Cached(), h.Fills())
	}

	// An overlaid window is read whole from the overlay.
	u := env.G.Neighbors(v)[0].To
	rep, err := s.ApplyFailures([]graph.EdgeKey{{U: v, V: u}})
	if err != nil {
		t.Fatal(err)
	}
	x := rep.RepairStats().VicTouched[0]
	hr := rep.Reader()
	hr.Vicinity(x)
	hr.VicinityFind(x, rep.Vicinity(x).ID(0))
	if hr.Fills() != 0 {
		t.Fatalf("reads of overlaid V(%d) filled %d slots", x, hr.Fills())
	}

	exact := mustBuild(t, env, k, false)
	he := exact.Reader()
	allocs := testing.AllocsPerRun(10, func() {
		for v := range graph.NodeID(32) {
			he.VicinityFind(v, w)
			he.VicinityContains(v, w)
			he.Vicinity(v)
		}
	})
	if allocs != 0 || he.Cached() != 0 || he.Fills() != 0 {
		t.Fatalf("an exact Reader allocated %.1f times a run and holds %d slots from %d fills, want none", allocs, he.Cached(), he.Fills())
	}
}
