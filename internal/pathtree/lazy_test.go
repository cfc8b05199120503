package pathtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"disco/internal/graph"
	"disco/internal/topology"
)

// lazyOracle holds one Lazy against a full graph.SSSP.Run of the same
// root, re-run at every Bind: whatever the Lazy was asked before, each
// answer must be the full run's.
type lazyOracle struct {
	t    testing.TB
	g    *graph.Graph
	lazy *Lazy
	ref  *graph.SSSP
	root graph.NodeID
}

func newLazyOracle(t testing.TB, g *graph.Graph) *lazyOracle {
	o := &lazyOracle{t: t, g: g, lazy: NewLazy(g), ref: graph.NewSSSP(g)}
	if o.lazy.Graph() != g || o.lazy.bound {
		t.Fatalf("fresh Lazy: Graph()==g %v, bound %v", o.lazy.Graph() == g, o.lazy.bound)
	}
	return o
}

func (o *lazyOracle) bind(root graph.NodeID) {
	o.root = root
	o.lazy.Bind(root)
	o.ref.Run(root)
	if !o.lazy.bound || o.lazy.root != root {
		o.t.Fatalf("root %d (bound %v) after Bind(%d)", o.lazy.root, o.lazy.bound, root)
	}
}

// refPathFrom is v ⇝ root along the full run's parents, [v] alone when v is
// unreachable — what Lazy.PathFrom has always returned.
func (o *lazyOracle) refPathFrom(v graph.NodeID) []graph.NodeID {
	out := []graph.NodeID{v}
	for u := o.ref.Parent(v); u != graph.None; u = o.ref.Parent(u) {
		out = append(out, u)
	}
	return out
}

func reversed(p []graph.NodeID) []graph.NodeID {
	r := slices.Clone(p)
	slices.Reverse(r)
	return r
}

// op runs one query chosen by code on node v (arg picks Closer's radius and
// Nearest's marked set) and compares it with the full run.
func (o *lazyOracle) op(code, arg uint8, v graph.NodeID) {
	o.t.Helper()
	l, ref := o.lazy, o.ref
	what := fmt.Sprintf("root %d op %d v %d arg %d", o.root, code%8, v, arg)
	switch code % 8 {
	case 0:
		if got, want := l.Dist(v), ref.Dist(v); got != want {
			o.t.Fatalf("%s: Dist = %v, want %v", what, got, want)
		}
	case 1:
		if got, want := l.PathFrom(v), o.refPathFrom(v); !slices.Equal(got, want) {
			o.t.Fatalf("%s: PathFrom = %v, want %v", what, got, want)
		}
	case 2:
		got, want := l.PathTo(v), ref.PathTo(v)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			o.t.Fatalf("%s: PathTo = %v, want %v", what, got, want)
		}
		if from := l.PathFrom(v); got != nil && !slices.Equal(reversed(got), from) {
			o.t.Fatalf("%s: PathTo = %v and PathFrom = %v are not reverses", what, got, from)
		}
	case 3:
		if got, want := l.Parent(v), ref.Parent(v); got != want {
			o.t.Fatalf("%s: Parent = %d, want %d", what, got, want)
		}
	case 4:
		r := float64(arg%16) / 2 // 0, 0.5, ... 7.5
		if arg%16 == 15 {
			r = math.Inf(1)
		}
		if got, want := l.Closer(v, r), ref.Dist(v) < r; got != want {
			o.t.Fatalf("%s: Closer(%v) = %v, want %v (dist %v)", what, r, got, want, ref.Dist(v))
		}
	case 5:
		// Every stride-th node from v on; a large stride often marks
		// nothing the root reaches.
		marked := make([]bool, o.g.N())
		for i := int(v); i < len(marked); i += 1 + int(arg) {
			marked[i] = true
		}
		wantV, wantD := graph.None, graph.Inf
		for _, u := range ref.Order() {
			if marked[u] {
				wantV, wantD = u, ref.Dist(u)
				break
			}
		}
		if gotV, gotD := l.Nearest(marked); gotV != wantV || gotD != wantD {
			o.t.Fatalf("%s: Nearest = (%d, %v), want (%d, %v)", what, gotV, gotD, wantV, wantD)
		}
	case 6:
		l.All()
	case 7:
		o.bind(v)
	}
}

// TestLazyMatchesRun drives random interleavings of every Lazy query over
// random unit-weight multigraphs — connected, shattered, with parallel
// links and isolated nodes — and the fixed shapes, re-binding several times
// per graph.
func TestLazyMatchesRun(t *testing.T) {
	type tc struct {
		name string
		g    *graph.Graph
	}
	rng := rand.New(rand.NewSource(7))
	cases := []tc{
		{"line", topology.Line(40)},
		{"line-8", topology.Line(8)},
		{"ring", topology.Ring(61)},
		{"star", topology.Star(30)},
		{"grid", topology.Grid(9, 13)},
		{"routerlike", topology.RouterLike(rng, 600)},
		{"aslike", topology.ASLike(rng, 400)},
	}
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(150)
		g := graph.New(n)
		seen := map[graph.EdgeKey]bool{}
		for m := rng.Intn(3*n + 1); m > 0 && n > 1; m-- {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if k := (graph.EdgeKey{U: u, V: v}).Norm(); u != v && !seen[k] {
				seen[k] = true
				g.AddEdge(u, v, 1)
			}
		}
		g.Finalize()
		cases = append(cases, tc{fmt.Sprintf("random-%d", i), g})
	}
	for _, c := range cases {
		if !c.g.Unit() {
			t.Fatalf("%s: not unit-weight", c.name)
		}
		o := newLazyOracle(t, c.g)
		n := c.g.N()
		for b := 0; b < 6; b++ {
			o.bind(graph.NodeID(rng.Intn(n)))
			o.op(0, 0, o.root) // root == v
			o.op(1, 0, o.root)
			for q := 0; q < 60; q++ {
				code := uint8(rng.Intn(7)) // rebinds come from the outer loop
				if code == 6 && rng.Intn(4) != 0 {
					code = 1 // All() ends the interesting part: keep it rare
				}
				o.op(code, uint8(rng.Intn(256)), graph.NodeID(rng.Intn(n)))
			}
		}
	}
}

// TestLazyDistThenPathSearchesOnce pins the meet memo: Dist(v) followed by
// PathFrom(v) must not grow either side again.
func TestLazyDistThenPathSearchesOnce(t *testing.T) {
	g := topology.RouterLike(rand.New(rand.NewSource(3)), 2000)
	l := NewLazy(g)
	l.Bind(5)
	v := graph.NodeID(1999)
	d := l.Dist(v)
	settled := len(l.s.Order()) + len(l.far.Order())
	if settled >= g.N() {
		t.Fatalf("Dist settled %d nodes of %d: not demand-driven", settled, g.N())
	}
	if p := l.PathFrom(v); float64(len(p)-1) != d {
		t.Fatalf("PathFrom has %d hops, Dist said %v", len(p)-1, d)
	}
	if again := len(l.s.Order()) + len(l.far.Order()); again != settled {
		t.Fatalf("PathFrom after Dist settled %d more nodes", again-settled)
	}
}

// TestLazyPathAfterRootGrowth: between Dist(v) and PathFrom(v) the root side
// may grow (Closer and Nearest step it without touching v's ball) and settle
// ball nodes that are on no shortest v–root path; the path must not wander
// through them.
func TestLazyPathAfterRootGrowth(t *testing.T) {
	g := topology.Grid(12, 12)
	o := newLazyOracle(t, g)
	for _, pr := range [][2]graph.NodeID{{5, 138}, {0, 143}, {60, 83}, {13, 130}, {6, 77}} {
		for grow := 1; grow <= 8; grow++ {
			o.bind(pr[1]) // a different root, so the next bind starts over
			o.bind(pr[0])
			o.op(0, 0, pr[1])
			o.lazy.Closer(pr[0], float64(o.lazy.s.Depth()+grow))
			o.op(1, 0, pr[1])
			o.op(3, 0, pr[1])
		}
	}
}

// TestLazyWeightedFallback pins the weighted path: a full Dijkstra at Bind
// behind the same methods, answers read straight off it.
func TestLazyWeightedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := topology.Geometric(rng, 300, 6)
	if g.Unit() {
		t.Fatal("geometric graph came out unit-weight")
	}
	o := newLazyOracle(t, g)
	for b := 0; b < 4; b++ {
		o.bind(graph.NodeID(rng.Intn(g.N())))
		if got := len(o.lazy.s.Order()); got != len(o.ref.Order()) {
			t.Fatalf("weighted Bind settled %d nodes, the full run %d", got, len(o.ref.Order()))
		}
		for q := 0; q < 80; q++ {
			o.op(uint8(rng.Intn(7)), uint8(rng.Intn(256)), graph.NodeID(rng.Intn(g.N())))
		}
	}
	if o.lazy.far != nil {
		t.Fatal("weighted graph allocated the far-side scratch")
	}
}

// FuzzLazyMatchesRun builds a unit graph from links (a link per four
// bytes, two 16-bit endpoints taken mod n; self-loops and repeated pairs
// dropped), binds root, and replays ops — four bytes each: query (7 binds a
// new root), argument, 16-bit node — against a full run. Run with `go test
// -fuzz FuzzLazyMatchesRun`; the checked-in corpus under testdata/fuzz/ runs
// on every plain `go test`.
func FuzzLazyMatchesRun(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 2, 0, 2, 0, 3}, uint16(5), uint16(0), []byte{0, 0, 0, 3, 1, 0, 0, 3, 2, 0, 0, 4})
	f.Fuzz(func(t *testing.T, links []byte, nodes, root uint16, ops []byte) {
		n := 1 + int(nodes)%512
		g := graph.New(n)
		seen := map[graph.EdgeKey]bool{}
		for i := 0; i+3 < len(links); i += 4 {
			u := graph.NodeID((int(links[i])<<8 | int(links[i+1])) % n)
			v := graph.NodeID((int(links[i+2])<<8 | int(links[i+3])) % n)
			if k := (graph.EdgeKey{U: u, V: v}).Norm(); u != v && !seen[k] {
				seen[k] = true
				g.AddEdge(u, v, 1)
			}
		}
		g.Finalize()
		o := newLazyOracle(t, g)
		o.bind(graph.NodeID(int(root) % n))
		for i := 0; i+3 < len(ops); i += 4 {
			o.op(ops[i], ops[i+1], graph.NodeID((int(ops[i+2])<<8|int(ops[i+3]))%n))
		}
	})
}

// BenchmarkLazyPair prices one sampled pair's destination-tree work on the
// fig-stretch topology (router-like n=8192): the stretch denominator alone
// (Bind(t) + Dist(s)), and with the path from a far node on top (S4's first
// packet asks for the path from the resolution owner), against the same
// answers read off one full Run per pair. settled/pair is how many nodes the
// searches settled, both sides together.
func BenchmarkLazyPair(b *testing.B) {
	const n = 8192
	g := topology.RouterLike(rand.New(rand.NewSource(1)), n)
	rng := rand.New(rand.NewSource(2))
	type pair struct{ s, t, far graph.NodeID }
	pairs := make([]pair, 4096)
	for i := range pairs {
		pairs[i] = pair{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
	}
	// farSettled is the size of the ball a query on v just grew, 0 when the
	// root side already had v.
	farSettled := func(l *Lazy, v graph.NodeID) int {
		if l.met != v {
			return 0
		}
		return len(l.far.Order())
	}
	for _, withPath := range []bool{false, true} {
		name := "Dist"
		if withPath {
			name = "Dist+PathFrom"
		}
		b.Run("lazy/"+name, func(b *testing.B) {
			l := NewLazy(g)
			l.Bind(0)
			l.Dist(n - 1) // allocate the far side
			settled := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				l.Bind(p.t)
				benchSink += l.Dist(p.s)
				settled += farSettled(l, p.s)
				if withPath {
					benchSink += float64(len(l.PathFrom(p.far)))
					settled += farSettled(l, p.far)
				}
				settled += len(l.s.Order())
			}
			b.ReportMetric(float64(settled)/float64(b.N), "settled/pair")
		})
		b.Run("run/"+name, func(b *testing.B) {
			s := graph.NewSSSP(g)
			s.Run(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				s.Run(p.t)
				benchSink += s.Dist(p.s)
				if withPath {
					path := s.PathTo(p.far)
					slices.Reverse(path)
					benchSink += float64(len(path))
				}
			}
			b.ReportMetric(n, "settled/pair")
		})
	}
}

var benchSink float64

// Parent returns v's predecessor toward the bound root, or graph.None.
func (l *Lazy) Parent(v graph.NodeID) graph.NodeID {
	if l.known(v) {
		return l.s.Parent(v)
	}
	if p := l.PathFrom(v); len(p) > 1 {
		return p[1]
	}
	return graph.None
}

// All settles the whole tree, making every later query on this root O(1)
// (O(path) for the paths): for callers about to ask about every node.
func (l *Lazy) All() {
	for l.s.Pending() > 0 {
		l.s.Step()
	}
}
