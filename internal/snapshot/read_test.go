package snapshot

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"disco/internal/graph"
	"disco/internal/vicinity"
)

// TestNoLookupDecodes holds the store to its read rule: no read short of
// Vicinity decodes a window. AppendVicinityPath, VicinityContains and
// VicinityDist, at members and at strangers, answer as the decoded window
// does, and they, AppendMembers and MemberDist allocate nothing beyond the
// caller's dst, which a compact decode into a fresh window would. An
// overlaid (repaired) window is searched where the overlay stores it.
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
			i := win.Find(members[v])
			got, ok := s.AppendVicinityPath(nil, v, members[v])
			if want := win.AppendPath(nil, i); !ok || !slices.Equal(got, want) {
				t.Fatalf("compact=%v: AppendVicinityPath(%d, %d) = (%v, %v), want %v", compact, v, members[v], got, ok, want)
			}
			if d, ok := s.VicinityDist(v, members[v]); !ok || d != win.Dist(i) {
				t.Fatalf("compact=%v: VicinityDist(%d, %d) = (%v, %v), want %v", compact, v, members[v], d, ok, win.Dist(i))
			}
		}

		buf := make([]graph.NodeID, 0, env.N())
		allocs := testing.AllocsPerRun(10, func() {
			for v := range graph.NodeID(owners) {
				_, okDist := s.VicinityDist(v, strangers[v])
				if _, ok := s.AppendVicinityPath(buf, v, strangers[v]); ok || okDist || s.VicinityContains(v, strangers[v]) {
					t.Fatalf("compact=%v: stranger %d found in V(%d)", compact, strangers[v], v)
				}
				_, okDist = s.VicinityDist(v, members[v])
				if _, ok := s.AppendVicinityPath(buf, v, members[v]); !ok || !okDist || !s.VicinityContains(v, members[v]) {
					t.Fatalf("compact=%v: member %d missed in V(%d)", compact, members[v], v)
				}
				for i := range s.AppendMembers(buf[:0], v) {
					s.MemberDist(v, i)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("compact=%v: lookups allocated %.1f times a run, want none", compact, allocs)
		}

		// An overlaid window is read from the overlay, and its lookups
		// search it.
		v := graph.NodeID(7)
		u := env.G.Neighbors(v)[0].To
		rep, err := s.ApplyFailures([]graph.EdgeKey{{U: v, V: u}})
		if err != nil {
			t.Fatal(err)
		}
		x := rep.RepairStats().VicTouched[0]
		win := rep.Vicinity(x)
		w := win.ID(win.Size() - 1)
		if got, ok := rep.AppendVicinityPath(nil, x, w); !ok || !slices.Equal(got, win.AppendPath(nil, win.Size()-1)) {
			t.Fatalf("compact=%v: AppendVicinityPath on overlaid V(%d) = (%v, %v)", compact, x, got, ok)
		}
	}
}

// TestMembersMatchWindow holds AppendMembers, MemberDist and VicinityDist
// to the window they read in place of: at every node, AppendMembers(v)
// appends exactly Vicinity(v)'s IDs after what dst held, MemberDist(v, i)
// is member i's distance, and VicinityDist answers as Find and Dist do at
// every member and at the IDs either side of it. It runs on a base, an
// unfolded chain head (whose overlay holds a cut-off node's one-member
// window) and a folded head, in both regimes; the base and the unfolded
// head also with windows of 150 members.
func TestMembersMatchWindow(t *testing.T) {
	for _, compact := range []bool{false, true} {
		k := vicinity.DefaultK(256)
		for _, tc := range []struct {
			name string
			s    *Snapshot
		}{
			{"base", mustBuild(t, buildEnv(t, 256, 17), k, compact)},
			{"chain head", cutChainHead(t, compact, k)},
			{"folded chain head", foldedChainHead(t, compact)},
			{"base k=150", mustBuild(t, buildEnv(t, 256, 17), 150, compact)},
			{"chain head k=150", cutChainHead(t, compact, 150)},
		} {
			s := tc.s
			ones := 0 // one-member windows met: the chain heads' cut-off node
			for v := range graph.NodeID(s.Graph().N()) {
				win := s.Vicinity(v)
				if win.Size() == 1 {
					ones++
				}
				ids := s.AppendMembers([]graph.NodeID{graph.None}, v)
				if len(ids) != 1+win.Size() || ids[0] != graph.None {
					t.Fatalf("compact=%v %s: AppendMembers(%d) = %v over %d members", compact, tc.name, v, ids, win.Size())
				}
				for i, id := range ids[1:] {
					if id != win.ID(i) || s.MemberDist(v, i) != win.Dist(i) {
						t.Fatalf("compact=%v %s: member %d of V(%d): (%d, %v), want (%d, %v)", compact, tc.name, i, v, id, s.MemberDist(v, i), win.ID(i), win.Dist(i))
					}
				}
				for i := range win.Size() {
					for _, w := range []graph.NodeID{win.ID(i) - 1, win.ID(i), win.ID(i) + 1} {
						d, ok := s.VicinityDist(v, w)
						if j := win.Find(w); ok != (j >= 0) || ok && d != win.Dist(j) {
							t.Fatalf("compact=%v %s: VicinityDist(%d, %d) = (%v, %v), window index %d", compact, tc.name, v, w, d, ok, j)
						}
					}
				}
			}
			if strings.Contains(tc.name, "chain head") && ones == 0 {
				t.Fatalf("compact=%v %s: no one-member window", compact, tc.name)
			}
		}
	}
}
