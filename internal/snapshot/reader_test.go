package snapshot

import (
	"math/rand"
	"slices"
	"testing"

	"disco/internal/graph"
	"disco/internal/vicinity"
)

// TestNoLookupDecodes holds the store to its read rule: no lookup decodes
// a window. AppendVicinityPath and VicinityContains, at members and at
// strangers, answer as the decoded window does and allocate nothing beyond
// the caller's dst, which a compact decode into a fresh window would. A
// Reader decodes only on a whole-window read of a compact base window: one
// read is one fill, and a read of an overlaid (repaired) window or of an
// exact store's is none. Over an exact store a Reader allocates nothing.
func TestNoLookupDecodes(t *testing.T) {
	env := buildEnv(t, 256, 1)
	k := vicinity.DefaultK(env.N())
	const owners = 64
	for _, compact := range []bool{false, true} {
		s := mustBuild(t, env, k, compact)
		rng := rand.New(rand.NewSource(4))
		// members[v] is a member of V(v) other than v, strangers[v] no member.
		var members, strangers [owners]graph.NodeID
		for v := range graph.NodeID(owners) {
			win := s.Vicinity(v)
			members[v] = win.ID(1 + rng.Intn(win.Size()-1))
			w := graph.NodeID(rng.Intn(env.N()))
			for win.Contains(w) {
				w = (w + 1) % graph.NodeID(env.N())
			}
			strangers[v] = w
			got, ok := s.AppendVicinityPath(nil, v, members[v])
			if want := win.AppendPath(nil, win.Find(members[v])); !ok || !slices.Equal(got, want) {
				t.Fatalf("compact=%v: AppendVicinityPath(%d, %d) = (%v, %v), want %v", compact, v, members[v], got, ok, want)
			}
		}

		buf := make([]graph.NodeID, 0, env.N())
		allocs := testing.AllocsPerRun(10, func() {
			for v := range graph.NodeID(owners) {
				if _, ok := s.AppendVicinityPath(buf, v, strangers[v]); ok || s.VicinityContains(v, strangers[v]) {
					t.Fatalf("compact=%v: stranger %d found in V(%d)", compact, strangers[v], v)
				}
				if _, ok := s.AppendVicinityPath(buf, v, members[v]); !ok || !s.VicinityContains(v, members[v]) {
					t.Fatalf("compact=%v: member %d missed in V(%d)", compact, members[v], v)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("compact=%v: lookups allocated %.1f times a run, want none", compact, allocs)
		}

		h := s.Reader()
		v := graph.NodeID(7)
		if diff := sameWindow(h.Vicinity(v), s.Vicinity(v)); diff != "" {
			t.Fatalf("compact=%v: V(%d) through the Reader: %s", compact, v, diff)
		}
		wantFills := 0
		if compact {
			wantFills = 1
		}
		if h.Fills() != wantFills {
			t.Fatalf("compact=%v: one whole-window read made %d fills, want %d", compact, h.Fills(), wantFills)
		}
		allocs = testing.AllocsPerRun(10, func() {
			for v := range graph.NodeID(owners) {
				h.Vicinity(v)
			}
		})
		if allocs != 0 {
			t.Fatalf("compact=%v: a warm Reader allocated %.1f times a run, want none", compact, allocs)
		}

		// An overlaid window is read whole from the overlay, and its lookups
		// search it.
		u := env.G.Neighbors(v)[0].To
		rep, err := s.ApplyFailures([]graph.EdgeKey{{U: v, V: u}})
		if err != nil {
			t.Fatal(err)
		}
		x := rep.RepairStats().VicTouched[0]
		hr := rep.Reader()
		win := hr.Vicinity(x)
		w := win.ID(win.Size() - 1)
		if got, ok := rep.AppendVicinityPath(nil, x, w); !ok || !slices.Equal(got, win.AppendPath(nil, win.Size()-1)) {
			t.Fatalf("compact=%v: AppendVicinityPath on overlaid V(%d) = (%v, %v)", compact, x, got, ok)
		}
		if hr.Fills() != 0 {
			t.Fatalf("compact=%v: a read of overlaid V(%d) made %d fills", compact, x, hr.Fills())
		}
	}
}
