package pathvector

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"disco/internal/graph"
	"disco/internal/sim"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vicinity"
)

func runProtocol(t *testing.T, g *graph.Graph, cfg Config) *Protocol {
	t.Helper()
	var eng sim.Engine
	p := New(g, &eng, cfg)
	p.Start()
	_, quiesced := eng.Run(200_000_000)
	if !quiesced {
		t.Fatal("protocol did not converge")
	}
	return p
}

// vicinities computes the static k-member vicinity of every node of g,
// indexed by node: what a converged vicinity-mode run must agree with.
func vicinities(g *graph.Graph, k int) []vicinity.Window {
	wins := vicinity.MakeWindows(g, g.N(), k)
	b := vicinity.NewBall(g)
	for v := range wins {
		b.Fill(&wins[v], graph.NodeID(v), k)
	}
	return wins
}

func TestFullModeConvergesToShortestPaths(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(1)), 60, 240)
	p := runProtocol(t, g, Config{Mode: ModeFull})
	s := graph.NewSSSP(g)
	for v := 0; v < g.N(); v++ {
		s.Run(graph.NodeID(v))
		for dst := 0; dst < g.N(); dst++ {
			if v == dst {
				continue
			}
			want := s.Dist(graph.NodeID(dst))
			got := p.BestDist(graph.NodeID(v), graph.NodeID(dst))
			if got != want {
				t.Fatalf("dist(%d,%d)=%v want %v", v, dst, got, want)
			}
			// Path must be valid and match the distance.
			path := p.BestPath(graph.NodeID(v), graph.NodeID(dst))
			if path[0] != graph.NodeID(v) || path[len(path)-1] != graph.NodeID(dst) {
				t.Fatalf("path endpoints wrong")
			}
			if g.PathLength(path) != want {
				t.Fatalf("path length mismatch")
			}
		}
	}
}

func TestFullModeWeightedGraph(t *testing.T) {
	g := topology.Geometric(rand.New(rand.NewSource(2)), 80, 8)
	p := runProtocol(t, g, Config{Mode: ModeFull})
	s := graph.NewSSSP(g)
	for v := 0; v < g.N(); v += 7 {
		s.Run(graph.NodeID(v))
		for dst := 0; dst < g.N(); dst++ {
			if v == dst {
				continue
			}
			if got, want := p.BestDist(graph.NodeID(v), graph.NodeID(dst)), s.Dist(graph.NodeID(dst)); got != want {
				t.Fatalf("dist(%d,%d)=%v want %v", v, dst, got, want)
			}
		}
	}
}

func TestVicinityModeMatchesStaticSimulator(t *testing.T) {
	// The §5 "accuracy of static simulation" cross-check, as an exact
	// equality on vicinity membership and distances.
	g := topology.Gnm(rand.New(rand.NewSource(3)), 150, 600)
	env := static.NewEnv(g, 3)
	isLM := env.IsLM
	K := 20
	p := runProtocol(t, g, Config{Mode: ModeVicinity, K: K, IsLandmark: isLM})
	want := vicinities(g, K)
	for v := 0; v < g.N(); v++ {
		got := p.VicinityMembers(graph.NodeID(v))
		wantSet := &want[graph.NodeID(v)]
		if len(got) != wantSet.Size() {
			t.Fatalf("node %d vicinity size %d want %d (members %v)", v, len(got), wantSet.Size(), got)
		}
		for _, m := range got {
			e := wantSet.Find(m)
			if e < 0 {
				t.Fatalf("node %d: member %d not in static vicinity", v, m)
			}
			if d := p.BestDist(graph.NodeID(v), m); m != graph.NodeID(v) && d != wantSet.Dist(e) {
				t.Fatalf("node %d member %d dist %v want %v", v, m, d, wantSet.Dist(e))
			}
		}
	}
}

func TestVicinityModeWeighted(t *testing.T) {
	g := topology.Geometric(rand.New(rand.NewSource(4)), 120, 8)
	env := static.NewEnv(g, 4)
	K := 15
	p := runProtocol(t, g, Config{Mode: ModeVicinity, K: K, IsLandmark: env.IsLM})
	want := vicinities(g, K)
	for v := 0; v < g.N(); v++ {
		got := p.VicinitySet(graph.NodeID(v))
		wantSet := &want[graph.NodeID(v)]
		if got.Size() != wantSet.Size() {
			t.Fatalf("node %d vicinity size %d want %d", v, got.Size(), wantSet.Size())
		}
		for i := 0; i < wantSet.Size(); i++ {
			j := got.Find(wantSet.ID(i))
			if j < 0 || got.Dist(j) != wantSet.Dist(i) {
				t.Fatalf("node %d: member %d missing or wrong dist", v, wantSet.ID(i))
			}
		}
	}
}

func TestLandmarkDistances(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(5)), 200, 800)
	env := static.NewEnv(g, 5)
	p := runProtocol(t, g, Config{Mode: ModeLandmarksOnly, IsLandmark: env.IsLM})
	got := p.LMDistances()
	for v := 0; v < g.N(); v++ {
		if got[v] != env.LMDist[v] {
			t.Fatalf("LMDist[%d]=%v want %v", v, got[v], env.LMDist[v])
		}
		// Non-landmark destinations must not be stored.
		if p.DataEntries(graph.NodeID(v)) > len(env.Landmarks)+1 {
			t.Fatalf("node %d stores too many destinations in landmarks-only mode", v)
		}
	}
}

func TestClusterModeMatchesS4Definition(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(6)), 150, 600)
	env := static.NewEnv(g, 6)
	p := runProtocol(t, g, Config{Mode: ModeCluster, IsLandmark: env.IsLM, LMDist: env.LMDist})
	s := graph.NewSSSP(g)
	for v := 0; v < g.N(); v += 11 {
		s.Run(graph.NodeID(v))
		for dst := 0; dst < g.N(); dst++ {
			if v == dst {
				continue
			}
			inCluster := s.Dist(graph.NodeID(dst)) < env.LMDist[dst]
			stored := p.BestDist(graph.NodeID(v), graph.NodeID(dst)) < graph.Inf
			if env.IsLM[dst] {
				if !stored {
					t.Fatalf("landmark %d not stored at %d", dst, v)
				}
				continue
			}
			if inCluster != stored {
				t.Fatalf("cluster membership mismatch at (%d,%d): want %v", v, dst, inCluster)
			}
			if stored {
				if got := p.BestDist(graph.NodeID(v), graph.NodeID(dst)); got != s.Dist(graph.NodeID(dst)) {
					t.Fatalf("cluster dist mismatch at (%d,%d)", v, dst)
				}
			}
		}
	}
}

func TestForgetfulReducesControlState(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(7)), 150, 600)
	env := static.NewEnv(g, 7)
	cfg := Config{Mode: ModeVicinity, K: 20, IsLandmark: env.IsLM}
	p1 := runProtocol(t, g, cfg)
	cfg.Forgetful = true
	p2 := runProtocol(t, g, cfg)
	tot1, tot2 := 0, 0
	for v := 0; v < g.N(); v++ {
		tot1 += p1.ControlEntries(graph.NodeID(v))
		tot2 += p2.ControlEntries(graph.NodeID(v))
		// Data planes must agree.
		m1 := p1.VicinityMembers(graph.NodeID(v))
		m2 := p2.VicinityMembers(graph.NodeID(v))
		if len(m1) != len(m2) {
			t.Fatalf("forgetful changed vicinity size at %d", v)
		}
		for i := range m1 {
			if m1[i] != m2[i] {
				t.Fatalf("forgetful changed vicinity at %d", v)
			}
		}
	}
	if tot2 >= tot1 {
		t.Errorf("forgetful routing should cut control state: %d vs %d", tot2, tot1)
	}
}

func TestMessagesCountedAndDeterministic(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(8)), 100, 400)
	env := static.NewEnv(g, 8)
	cfg := Config{Mode: ModeVicinity, K: 15, IsLandmark: env.IsLM}
	p1 := runProtocol(t, g, cfg)
	p2 := runProtocol(t, g, cfg)
	if p1.Messages == 0 {
		t.Fatal("no messages counted")
	}
	if p1.Messages != p2.Messages {
		t.Fatalf("message count must be deterministic: %d vs %d", p1.Messages, p2.Messages)
	}
}

func TestVicinityMessagesScaleBelowFull(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(9)), 200, 800)
	env := static.NewEnv(g, 9)
	full := runProtocol(t, g, Config{Mode: ModeFull})
	vic := runProtocol(t, g, Config{Mode: ModeVicinity, K: vicinity.DefaultK(200), IsLandmark: env.IsLM})
	if vic.Messages >= full.Messages {
		t.Errorf("vicinity PV should send fewer messages than full PV: %d vs %d",
			vic.Messages, full.Messages)
	}
	t.Logf("messages/node: full=%.0f vicinity=%.0f",
		float64(full.Messages)/200, float64(vic.Messages)/200)
}

func TestLineTopologyVicinity(t *testing.T) {
	// On a line with K=3, V(v) must be v and its two nearest (tie to
	// lower IDs at the ends).
	g := topology.Line(9)
	isLM := make([]bool, 9)
	isLM[4] = true
	p := runProtocol(t, g, Config{Mode: ModeVicinity, K: 3, IsLandmark: isLM})
	want := vicinities(g, 3)
	for v := 0; v < 9; v++ {
		got := p.VicinityMembers(graph.NodeID(v))
		ws := &want[graph.NodeID(v)]
		if len(got) != ws.Size() {
			t.Fatalf("node %d vicinity %v want size %d", v, got, ws.Size())
		}
		for _, m := range got {
			if !ws.Contains(m) {
				t.Fatalf("node %d vicinity %v: %d unexpected", v, got, m)
			}
		}
	}
}

// tables is everything a converged instance holds: its message count,
// every pair's best path, every node's vicinity window, as (member, parent
// position, distance) rows, and every node's candidates in destination
// order.
type tables struct {
	messages int64
	paths    [][]graph.NodeID
	vic      [][]vicinity.Entry
	cands    [][]cand
}

func tablesOf(p *Protocol) tables {
	n := p.g.N()
	t := tables{messages: p.Messages}
	for v := graph.NodeID(0); int(v) < n; v++ {
		for dst := graph.NodeID(0); int(dst) < n; dst++ {
			t.paths = append(t.paths, p.BestPath(v, dst))
		}
		w := p.VicinitySet(v)
		rows := make([]vicinity.Entry, w.Size())
		for i := range rows {
			rows[i] = vicinity.Entry{Node: w.ID(i), Parent: graph.NodeID(w.Parent(i)), Dist: w.Dist(i)}
		}
		t.vic = append(t.vic, rows)
		nd := p.nodes[v]
		for _, dst := range nd.candDsts() {
			t.cands = append(t.cands, slices.Clone(nd.cand[dst]))
		}
	}
	return t
}

// TestConvergenceDeterministic: converging the same configuration twice
// gives the same message count, best path for every pair and vicinity
// for every node, in every mode.
func TestConvergenceDeterministic(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(10)), 128, 512)
	env := static.NewEnv(g, 10)
	for _, cfg := range []Config{
		{Mode: ModeFull},
		{Mode: ModeVicinity, K: vicinity.DefaultK(128), IsLandmark: env.IsLM},
		{Mode: ModeLandmarksOnly, IsLandmark: env.IsLM},
		{Mode: ModeCluster, IsLandmark: env.IsLM, LMDist: env.LMDist},
	} {
		a, b := tablesOf(runProtocol(t, g, cfg)), tablesOf(runProtocol(t, g, cfg))
		if a.messages != b.messages {
			t.Errorf("%v: messages %d vs %d", cfg, a.messages, b.messages)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: tables differ between two runs", cfg)
		}
	}
}

// VicinityMembers returns the converged vicinity membership of v, sorted.
func (p *Protocol) VicinityMembers(v graph.NodeID) []graph.NodeID {
	nd := p.nodes[v]
	out := make([]graph.NodeID, len(nd.vic))
	for i, m := range nd.vic {
		out[i] = m.id
	}
	slices.Sort(out)
	return out
}

// LMDistances extracts every node's distance to its nearest landmark from a
// converged ModeLandmarksOnly (or ModeVicinity) run — the input to S4's
// cluster phase.
func (p *Protocol) LMDistances() []float64 {
	var lms []graph.NodeID
	for v := range p.nodes {
		if p.isLandmark(graph.NodeID(v)) {
			lms = append(lms, graph.NodeID(v))
		}
	}
	out := make([]float64, len(p.nodes))
	for v, nd := range p.nodes {
		best := graph.Inf
		for _, lm := range lms {
			if r, ok := nd.best[lm]; ok && r.dist < best {
				best = r.dist
			}
		}
		if p.isLandmark(graph.NodeID(v)) {
			best = 0
		}
		out[v] = best
	}
	return out
}
