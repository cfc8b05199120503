package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The generators below mirror internal/topology's, which imports this
// package and so cannot be imported from an in-package test; the tests
// have to live here to call the two kernels directly.

func genGnm(rng *rand.Rand, n, m int) *Graph {
	g := New(n)
	seen := map[EdgeKey]bool{}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := NodeID(perm[i]), NodeID(perm[rng.Intn(i)])
		seen[EdgeKey{u, v}.Norm()] = true
		g.AddEdge(u, v, 1)
	}
	for g.M() < m {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if k := (EdgeKey{u, v}).Norm(); u != v && !seen[k] {
			seen[k] = true
			g.AddEdge(u, v, 1)
		}
	}
	g.Finalize()
	return g
}

// genFuzz decodes a unit graph on n nodes from a fuzz input, a link per
// four bytes, two 16-bit endpoints taken mod n; self-loops and repeated
// pairs are skipped.
func genFuzz(links []byte, n int) *Graph {
	g := New(n)
	seen := map[EdgeKey]bool{}
	for i := 0; i+3 < len(links); i += 4 {
		u := NodeID((int(links[i])<<8 | int(links[i+1])) % n)
		v := NodeID((int(links[i+2])<<8 | int(links[i+3])) % n)
		if k := (EdgeKey{u, v}).Norm(); u != v && !seen[k] {
			seen[k] = true
			g.AddEdge(u, v, 1)
		}
	}
	return g
}

// genRouterLike is preferential attachment (3 links per new node) plus a
// 10% fringe of degree-1 stubs: hubs, a shallow core, and leaves.
func genRouterLike(rng *rand.Rand, n int) *Graph {
	const per = 3
	core := n - n/10
	g := New(n)
	seen := map[EdgeKey]bool{}
	var ends []NodeID
	link := func(u, v NodeID) {
		seen[EdgeKey{u, v}.Norm()] = true
		ends = append(ends, u, v)
		g.AddEdge(u, v, 1)
	}
	for u := NodeID(0); u <= per; u++ {
		for v := u + 1; v <= per; v++ {
			link(u, v)
		}
	}
	for u := NodeID(per + 1); int(u) < core; u++ {
		for added := 0; added < per; {
			v := ends[rng.Intn(len(ends))]
			if v == u || seen[EdgeKey{u, v}.Norm()] {
				if v = NodeID(rng.Intn(int(u))); seen[EdgeKey{u, v}.Norm()] {
					continue
				}
			}
			link(u, v)
			added++
		}
	}
	for s := core; s < n; s++ {
		g.AddEdge(NodeID(s), NodeID(rng.Intn(core)), 1)
	}
	g.Finalize()
	return g
}

func genRing(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(NodeID(i), NodeID((i+1)%n), 1)
	}
	g.Finalize()
	return g
}

func genGrid(rows, cols int) *Graph {
	g := New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if v := NodeID(r*cols + c); c+1 < cols {
				g.AddEdge(v, v+1, 1)
			}
			if v := NodeID(r*cols + c); r+1 < rows {
				g.AddEdge(v, v+NodeID(cols), 1)
			}
		}
	}
	g.Finalize()
	return g
}

// genGeometric links points of the unit square closer than the radius that
// gives the wanted average degree, weighted by their distance. It is not
// stitched into one component; the kernels do not need it to be.
func genGeometric(rng *rand.Rand, n int, avgDeg float64) *Graph {
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	r := math.Sqrt(avgDeg / (math.Pi * float64(n)))
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if d := math.Hypot(xs[u]-xs[v], ys[u]-ys[v]); d < r && d > 0 {
				g.AddEdge(NodeID(u), NodeID(v), d)
			}
		}
	}
	g.Finalize()
	return g
}

// kernelPair runs one query on both kernels over the same unit graph and
// requires everything a caller can read off an SSSP to be identical; a plain
// Run is also replayed one Step at a time (checkStepped).
type kernelPair struct {
	t           testing.TB
	heap, level *SSSP
}

func newKernelPair(t testing.TB, g *Graph) *kernelPair {
	t.Helper()
	g.Finalize()
	if !g.unit {
		t.Fatalf("kernelPair needs a unit-weight graph")
	}
	return &kernelPair{t: t, heap: NewSSSP(g), level: NewSSSP(g)}
}

func (p *kernelPair) check(what string, sources []NodeID, limit int, radius float64) {
	p.t.Helper()
	p.heap.begin()
	p.heap.runHeap(sources, limit, radius)
	p.level.begin()
	p.level.runLevels(sources, limit, radius)
	h, l := p.heap, p.level
	if !slices.Equal(h.Order(), l.Order()) {
		p.t.Fatalf("%s: Order differs\n heap  %v\n level %v", what, h.Order(), l.Order())
	}
	for v := NodeID(0); int(v) < h.g.N(); v++ {
		if h.Settled(v) != l.Settled(v) || h.Dist(v) != l.Dist(v) ||
			h.Parent(v) != l.Parent(v) || h.Source(v) != l.Source(v) {
			p.t.Fatalf("%s: node %d: heap (settled %v dist %v parent %d source %d) level (settled %v dist %v parent %d source %d)",
				what, v, h.Settled(v), h.Dist(v), h.Parent(v), h.Source(v),
				l.Settled(v), l.Dist(v), l.Parent(v), l.Source(v))
		}
	}
	if len(sources) == 1 && limit < 0 && radius < 0 {
		p.checkStepped(what, sources[0])
	}
	for _, w := range l.bits {
		if w != 0 {
			p.t.Fatalf("%s: level bitset left dirty", what)
		}
	}
}

// checkStepped requires Begin + Step to exhaustion on the level scratch to
// be the heap kernel's Run(src), which check has just left in p.heap — same
// Order, distances and parents — with every settled node final from the
// Step that settled it, and Level(i) the nodes at distance i, ascending.
func (p *kernelPair) checkStepped(what string, src NodeID) {
	p.t.Helper()
	h, l := p.heap, p.level
	l.Begin(src)
	if l.Depth() != 1 || l.Pending() != 1 || !slices.Equal(l.Order(), []NodeID{src}) {
		p.t.Fatalf("%s: after Begin: depth %d pending %d order %v", what, l.Depth(), l.Pending(), l.Order())
	}
	for d := 0; ; d++ {
		level := l.Level(d)
		if l.Depth() != d+1 || l.Pending() != len(level) || !slices.IsSorted(level) {
			p.t.Fatalf("%s: level %d: depth %d pending %d, level %v", what, d, l.Depth(), l.Pending(), level)
		}
		for _, v := range level {
			if !l.Settled(v) || l.Dist(v) != float64(d) || h.Dist(v) != float64(d) || l.Parent(v) != h.Parent(v) {
				p.t.Fatalf("%s: level %d node %d: stepped (settled %v dist %v parent %d), Run (dist %v parent %d)",
					what, d, v, l.Settled(v), l.Dist(v), l.Parent(v), h.Dist(v), h.Parent(v))
			}
		}
		next := l.Step()
		if next == nil {
			break
		}
		if !slices.Equal(next, l.Level(d+1)) {
			p.t.Fatalf("%s: Step returned %v, Level(%d) is %v", what, next, d+1, l.Level(d+1))
		}
	}
	if l.Pending() != 0 {
		p.t.Fatalf("%s: %d pending after the last Step", what, l.Pending())
	}
	if l.Step() != nil {
		p.t.Fatalf("%s: Step on an exhausted search settled something", what)
	}
	if !slices.Equal(h.Order(), l.Order()) {
		p.t.Fatalf("%s: stepped Order differs\n Run     %v\n stepped %v", what, h.Order(), l.Order())
	}
	for v := NodeID(0); int(v) < h.g.N(); v++ {
		if h.Settled(v) != l.Settled(v) {
			p.t.Fatalf("%s: node %d settled: Run %v, stepped %v", what, v, h.Settled(v), l.Settled(v))
		}
	}
}

// sweep drives every Run variant from a few sources, with limits and radii
// on both sides of every boundary.
func (p *kernelPair) sweep(rng *rand.Rand, name string) {
	p.t.Helper()
	n := p.heap.g.N()
	for q := 0; q < 6; q++ {
		src := NodeID(rng.Intn(n))
		p.check(fmt.Sprintf("%s Run(%d)", name, src), []NodeID{src}, -1, -1)
		for _, k := range []int{0, 1, 2, 3, rng.Intn(n + 1), n / 2, n - 1, n, n + 7} {
			p.check(fmt.Sprintf("%s RunK(%d,%d)", name, src, k), []NodeID{src}, k, -1)
		}
		for _, r := range []float64{0, 0.5, 1, 1.5, 2, 3, float64(rng.Intn(12)), 1e9} {
			p.check(fmt.Sprintf("%s RunRadius(%d,%v)", name, src, r), []NodeID{src}, -1, r)
		}
		sources := make([]NodeID, 2+rng.Intn(6))
		for i := range sources {
			sources[i] = NodeID(rng.Intn(n))
		}
		sources = append(sources, sources[0], sources[len(sources)/2]) // duplicates
		p.check(fmt.Sprintf("%s RunMulti(%v)", name, sources), sources, -1, -1)
		p.check(fmt.Sprintf("%s multi limit", name), sources, rng.Intn(n+1), -1)
		p.check(fmt.Sprintf("%s multi radius", name), sources, -1, float64(1+rng.Intn(4)))
	}
}

func TestSSSPKernelsAgree(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(200)
		// The ring and the grid are big enough that their few-node levels
		// span many bitset words, which is what sends sortLevel down its
		// sorting branch; the dense graphs stay on the bitset branch.
		graphs := []struct {
			name string
			g    *Graph
		}{
			{"gnm", genGnm(rng, n, 4*n)},
			{"gnm-sparse", genGnm(rng, n, n+n/8)},
			{"routerlike", genRouterLike(rng, n)},
			{"ring", genRing(1500 + rng.Intn(1000))},
			{"grid", genGrid(20+rng.Intn(20), 30+rng.Intn(30))},
		}
		for _, tc := range graphs {
			name := fmt.Sprintf("seed %d %s", seed, tc.name)
			newKernelPair(t, tc.g).sweep(rng, name)
			// The same graph with a third of its links failed: several
			// components, isolated nodes, and a WithoutEdges-built layout.
			dead := make([]bool, tc.g.M())
			for i := range dead {
				dead[i] = rng.Intn(3) == 0
			}
			newKernelPair(t, tc.g.WithoutEdges(dead)).sweep(rng, name+" failed")
		}
	}
}

// TestSortLevel checks the level ordering on its own, against slices.Sort:
// distinct IDs at every density from one per word to one per 40 words, every
// prefix length, and a clean bitset afterwards.
func TestSortLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 5000
	s := &SSSP{bits: make([]uint64, (n+63)/64)}
	for trial := 0; trial < 400; trial++ {
		span := 1 + rng.Intn(n)
		base := rng.Intn(n - span + 1)
		ids := rng.Perm(span)[:1+rng.Intn(min(span, 1+trial))]
		s.next = s.next[:0]
		for _, id := range ids {
			s.next = append(s.next, NodeID(base+id))
		}
		want := slices.Clone(s.next)
		slices.Sort(want)
		take := rng.Intn(len(want) + 1)
		if got := s.sortLevel(take); !slices.Equal(got, want[:take]) {
			t.Fatalf("trial %d: %d IDs over %d, take %d:\n got  %v\n want %v", trial, len(want), span, take, got, want[:take])
		}
		for i, w := range s.bits {
			if w != 0 {
				t.Fatalf("trial %d: bitset word %d left dirty", trial, i)
			}
		}
	}
}

// FuzzSSSPKernelsAgree builds a unit graph from the byte string (genFuzz: a
// link per four bytes, repeated pairs skipped), optionally fails
// every third link through WithoutEdges, and requires the level kernel to
// agree with the heap kernel on one query (mode 0, a plain Run, also checks
// the search stepped level by level against it). Up to 1024 nodes, so that levels
// can be sparse enough for either branch of sortLevel. Run with `go test
// -fuzz FuzzSSSPKernelsAgree`; the checked-in corpus under testdata/fuzz/
// runs on every plain `go test`.
func FuzzSSSPKernelsAgree(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 2, 0, 2, 0, 3, 0, 3, 0, 0}, uint16(4), uint8(0), uint16(0), uint8(0))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 2, 0, 5, 0, 6}, uint16(7), uint8(1), uint16(0), uint8(3))
	f.Add([]byte{0, 0, 3, 9, 3, 9, 1, 4, 1, 4, 2, 2, 2, 2, 0, 7, 0, 7, 0, 0}, uint16(1000), uint8(2), uint16(4), uint8(5))
	f.Add([]byte{0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 1, 0, 3, 0, 2, 0, 4, 0, 3}, uint16(5), uint8(7), uint16(0), uint8(3))
	f.Fuzz(func(t *testing.T, links []byte, nodes uint16, mode uint8, src uint16, arg uint8) {
		n := 1 + int(nodes)%1024
		g := genFuzz(links, n)
		if mode&4 != 0 {
			dead := make([]bool, g.M())
			for i := range dead {
				dead[i] = i%3 == 0
			}
			g = g.WithoutEdges(dead)
		}
		p := newKernelPair(t, g)
		s := NodeID(int(src) % n)
		switch mode & 3 {
		case 0:
			p.check("Run", []NodeID{s}, -1, -1)
		case 1:
			p.check("RunK", []NodeID{s}, int(arg)%(n+3), -1)
		case 2:
			p.check("RunRadius", []NodeID{s}, -1, float64(arg%16)/2)
		case 3:
			p.check("RunMulti", []NodeID{s, NodeID(int(arg) % n), NodeID(int(arg) * 37 % n), s}, -1, -1)
		}
	})
}

// checkBatchRows requires the batched kernel's rows and reached counts for
// roots, at every batch width, to be what one SSSP.Run per root leaves:
// the same parent at every node (None at the root and wherever the root
// does not reach) and len(Order()) nodes reached.
func checkBatchRows(t testing.TB, what string, g *Graph, roots []NodeID) {
	t.Helper()
	g.Finalize()
	if !g.unit {
		t.Fatalf("checkBatchRows needs a unit-weight graph")
	}
	n := g.N()
	want := make([][]NodeID, len(roots))
	for i := range want {
		want[i] = make([]NodeID, n)
	}
	wantReached := parentRows(g, roots, want, 0) // one Run per root
	rows := make([][]NodeID, len(roots))
	for i := range rows {
		rows[i] = make([]NodeID, n)
	}
	for _, width := range []int{1, 7, BatchRoots} {
		for _, row := range rows {
			for v := range row {
				row[v] = NodeID(v) // stale contents the kernel must overwrite
			}
		}
		reached := parentRows(g, roots, rows, width)
		for i, root := range roots {
			if reached[i] != wantReached[i] {
				t.Fatalf("%s width %d: root %d (#%d) reaches %d nodes, Run settles %d", what, width, root, i, reached[i], wantReached[i])
			}
			if !slices.Equal(rows[i], want[i]) {
				for v := range rows[i] {
					if rows[i][v] != want[i][v] {
						t.Fatalf("%s width %d: root %d (#%d) node %d: parent %d, Run gives %d", what, width, root, i, v, rows[i][v], want[i][v])
					}
				}
			}
		}
	}
}

// TestBatchRowsMatchRun is the batched forest kernel's differential test,
// over TestSSSPKernelsAgree's topologies and their failed copies (several
// components, isolated nodes, roots among them), with
// root counts on both sides of a machine word and duplicate roots.
func TestBatchRowsMatchRun(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(200)
		graphs := []struct {
			name string
			g    *Graph
		}{
			{"gnm", genGnm(rng, n, 4*n)},
			{"gnm-sparse", genGnm(rng, n, n+n/8)},
			{"routerlike", genRouterLike(rng, n)},
			{"ring", genRing(300 + rng.Intn(300))},
			{"grid", genGrid(10+rng.Intn(10), 15+rng.Intn(15))},
		}
		for _, tc := range graphs {
			dead := make([]bool, tc.g.M())
			for i := range dead {
				dead[i] = rng.Intn(3) == 0
			}
			failed := tc.g.WithoutEdges(dead)
			// An isolated node of the failed copy, if it has one, is always a root.
			isolated := None
			for v := NodeID(0); int(v) < failed.N(); v++ {
				if failed.Degree(v) == 0 {
					isolated = v
					break
				}
			}
			for _, count := range []int{1, 63, 64, 65, 130} {
				roots := make([]NodeID, count)
				for i := range roots {
					roots[i] = NodeID(rng.Intn(tc.g.N()))
				}
				if count > 2 {
					roots[count-1] = roots[0] // a duplicate, in another batch at width 1 and 7
					roots[count/2] = roots[count/2-1]
				}
				name := fmt.Sprintf("seed %d %s %d roots", seed, tc.name, count)
				checkBatchRows(t, name, tc.g, roots)
				if isolated != None {
					roots[rng.Intn(count)] = isolated
				}
				checkBatchRows(t, name+" failed", failed, roots)
			}
		}
	}
	// A graph with no links at all: every root is isolated.
	checkBatchRows(t, "edgeless", New(5), []NodeID{3, 0, 3})
	checkBatchRows(t, "no roots", genRing(4), nil)
}

// TestParentRowsWeighted: on a weighted graph ParentRows is one Run per
// root, and Graph.Unit is what decides.
func TestParentRowsWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := genGeometric(rng, 150, 8)
	if g.Unit() {
		t.Fatal("geometric graph reports unit weights")
	}
	roots := []NodeID{0, 17, 17, 149}
	rows := make([][]NodeID, len(roots))
	for i := range rows {
		rows[i] = make([]NodeID, g.N())
	}
	reached := ParentRows(g, roots, rows)
	ref := NewSSSP(g)
	for i, root := range roots {
		ref.Run(root)
		if int(reached[i]) != len(ref.Order()) {
			t.Fatalf("root %d reaches %d, Run settles %d", root, reached[i], len(ref.Order()))
		}
		for v := range rows[i] {
			if rows[i][v] != ref.Parent(NodeID(v)) {
				t.Fatalf("root %d node %d: parent %d, Run gives %d", root, v, rows[i][v], ref.Parent(NodeID(v)))
			}
		}
	}
}

// FuzzBatchRowsMatchRun builds a unit graph from the byte string as
// FuzzSSSPKernelsAgree does (genFuzz, optionally every third link failed) and draws up to 130 roots from a
// second byte string, two bytes a root, so that roots repeat, sit on
// isolated nodes and spill over a machine word; the batched rows must be
// Run's at widths 1, 7 and 64. Run with `go test -fuzz
// FuzzBatchRowsMatchRun`; the checked-in corpus under testdata/fuzz/ runs
// on every plain `go test`.
func FuzzBatchRowsMatchRun(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 2, 0, 2, 0, 3, 0, 3, 0, 0}, uint16(4), false, []byte{0, 0, 0, 2})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 2, 0, 5, 0, 6}, uint16(7), true, []byte{0, 3, 0, 3, 0, 5})
	f.Fuzz(func(t *testing.T, links []byte, nodes uint16, fail bool, rootBytes []byte) {
		n := 1 + int(nodes)%512
		g := genFuzz(links, n)
		if fail {
			dead := make([]bool, g.M())
			for i := range dead {
				dead[i] = i%3 == 0
			}
			g = g.WithoutEdges(dead)
		}
		var roots []NodeID
		for i := 0; i+1 < len(rootBytes) && len(roots) < 130; i += 2 {
			roots = append(roots, NodeID((int(rootBytes[i])<<8|int(rootBytes[i+1]))%n))
		}
		checkBatchRows(t, "fuzz", g, roots)
	})
}

// TestBeginRejectsWeighted: a weighted graph has no levels to pause between.
func TestBeginRejectsWeighted(t *testing.T) {
	g := genRing(5).WithEdges([]WeightedLink{{U: 0, V: 2, W: 2.5}})
	s := NewSSSP(g)
	defer func() {
		if recover() == nil {
			t.Fatal("Begin on a weighted graph did not panic")
		}
	}()
	s.Begin(0)
}

// TestAddEdgeAfterFinalizePanics: a finalized graph is sealed. AddEdge
// panics and leaves it as it was, flat rows and unit flag included.
func TestAddEdgeAfterFinalizePanics(t *testing.T) {
	g := genRing(6)
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge on a finalized graph did not panic")
		}
		if !g.Finalized() || !g.unit || g.M() != 6 || g.Degree(0) != 2 {
			t.Fatalf("after the refused AddEdge: finalized=%v unit=%v m=%d deg(0)=%d", g.Finalized(), g.unit, g.M(), g.Degree(0))
		}
	}()
	g.AddEdge(0, 3, 2)
}

// TestLevelKernelEpochWrap walks the epoch counter over its uint32 wrap
// with truncated runs (which leave touched-but-unsettled nodes behind)
// between full ones.
func TestLevelKernelEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := genGnm(rng, 300, 900)
	ref := NewSSSP(g)
	s := NewSSSP(g)
	s.epoch = math.MaxUint32 - 2 // the second RunK below wraps it
	for i := 0; i < 8; i++ {
		src := NodeID(rng.Intn(g.N()))
		s.RunK(src, 1+rng.Intn(40))
		if i == 1 && s.epoch != 1 {
			t.Fatalf("epoch = %d after the wrap, want 1", s.epoch)
		}
		src = NodeID(rng.Intn(g.N()))
		s.Run(src)
		for _, w := range s.bits {
			if w != 0 {
				t.Fatalf("run %d: bitset left dirty", i)
			}
		}
		ref.begin()
		ref.runHeap([]NodeID{src}, -1, -1)
		for v := NodeID(0); int(v) < g.N(); v++ {
			if s.Dist(v) != ref.Dist(v) || s.Parent(v) != ref.Parent(v) {
				t.Fatalf("run %d (epoch %d): node %d dist %v parent %d, want %v %d",
					i, s.epoch, v, s.Dist(v), s.Parent(v), ref.Dist(v), ref.Parent(v))
			}
		}
	}
}

// rebuilt is the reference for the flat graph copies: the same links added
// one by one in EID order (skipping dead ones, then the additions) and
// finalized.
func rebuilt(g *Graph, dead []bool, adds []WeightedLink) *Graph {
	type link struct {
		u, v NodeID
		w    float64
	}
	byID := make([]link, g.M())
	for u := NodeID(0); int(u) < g.N(); u++ {
		for _, e := range g.Neighbors(u) {
			if e.To > u {
				byID[e.EID] = link{u, e.To, e.Weight}
			}
		}
	}
	g2 := New(g.N())
	for id, l := range byID {
		if dead == nil || !dead[id] {
			g2.AddEdge(l.u, l.v, l.w)
		}
	}
	for _, a := range adds {
		g2.AddEdge(a.U, a.V, a.W)
	}
	g2.Finalize()
	return g2
}

func sameGraph(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() || !got.Finalized() || got.unit != want.unit {
		t.Fatalf("%s: n=%d m=%d finalized=%v unit=%v, want n=%d m=%d finalized unit=%v",
			what, got.N(), got.M(), got.Finalized(), got.unit, want.N(), want.M(), want.unit)
	}
	if !slices.Equal(got.off, want.off) || !slices.Equal(got.edges, want.edges) {
		t.Fatalf("%s: flat rows differ from the AddEdge+Finalize rebuild", what)
	}
}

// TestGraphCopiesMatchRebuild pins WithoutEdges/WithEdges — which filter and
// splice the flat rows directly — to the graph AddEdge+Finalize builds from
// the same links in the same order: same rows, same EIDs, same unit flag.
func TestGraphCopiesMatchRebuild(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(100)
		g := genGnm(rng, n, 3*n)
		if seed%2 == 0 {
			g = genGeometric(rng, n, 8)
		}
		dead := make([]bool, g.M())
		var adds []WeightedLink
		for id, k := range g.EdgeList() {
			if rng.Intn(8) == 0 {
				dead[id] = true
				adds = append(adds, WeightedLink{U: k.V, V: k.U, W: g.EdgeWeight(k.U, k.V)})
			}
		}
		failed := g.WithoutEdges(dead)
		sameGraph(t, "WithoutEdges", failed, rebuilt(g, dead, nil))
		rng.Shuffle(len(adds), func(i, j int) { adds[i], adds[j] = adds[j], adds[i] })
		sameGraph(t, "WithEdges", failed.WithEdges(adds), rebuilt(failed, nil, adds))
		sameGraph(t, "WithEdges(nil)", failed.WithEdges(nil), failed)
		// A non-unit link into a unit graph, and its removal again.
		far := NodeID(n - 1)
		for g.EdgeID(0, far) >= 0 {
			far--
		}
		heavy := []WeightedLink{{U: 0, V: far, W: 2.5}}
		plus := g.WithEdges(heavy)
		sameGraph(t, "WithEdges heavy", plus, rebuilt(g, nil, heavy))
		mask := make([]bool, plus.M())
		mask[plus.M()-1] = true
		sameGraph(t, "WithoutEdges heavy", plus.WithoutEdges(mask), rebuilt(plus, mask, nil))
	}
}

// TestWithEdgesRejectsBadLinks: WithEdges panics on the links AddEdge
// refuses, on a link the ring already has (in either spelling), and on a
// pair given twice.
func TestWithEdgesRejectsBadLinks(t *testing.T) {
	g := genRing(5)
	for _, bad := range [][]WeightedLink{{{U: 1, V: 1, W: 1}}, {{U: 0, V: 5, W: 1}}, {{U: 0, V: 2, W: -1}},
		{{U: 0, V: 2, W: 0}}, {{U: 0, V: 2, W: math.NaN()}}, {{U: 0, V: 2, W: math.Inf(1)}},
		{{U: 0, V: 1, W: 1}}, {{U: 0, V: 3, W: 1}, {U: 4, V: 0, W: 2}},
		{{U: 0, V: 2, W: 1}, {U: 1, V: 3, W: 1}, {U: 2, V: 0, W: 1}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("WithEdges(%+v) did not panic", bad)
				}
			}()
			g.WithEdges(bad)
		}()
	}
}

// BenchmarkSSSP prices both kernels on the same scratch and sources:
// level vs heap on the unit-weight graphs, and the heap alone on the
// weighted one (geometric), which no BENCHMARK.json workload runs. RunK
// uses the vicinity size ceil(sqrt(n log2 n)). The rows cases price 64
// shortest-path trees written out as parent rows: 64 Runs against one
// batched sweep (ParentRows' two kernels).
func BenchmarkSSSP(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"routerlike-8192", genRouterLike(rng, 8192)},
		{"gnm-4096", genGnm(rng, 4096, 4*4096)},
		{"geometric-4096", genGeometric(rng, 4096, 8)},
		{"ring-65536", genRing(65536)},
	}
	kernels := []struct {
		name string
		run  func(s *SSSP, src NodeID, limit int)
	}{
		{"level", func(s *SSSP, src NodeID, limit int) { s.begin(); s.runLevels([]NodeID{src}, limit, -1) }},
		{"heap", func(s *SSSP, src NodeID, limit int) { s.begin(); s.runHeap([]NodeID{src}, limit, -1) }},
	}
	for _, tc := range graphs {
		n := tc.g.N()
		k := int(math.Ceil(math.Sqrt(float64(n) * math.Log2(float64(n)))))
		for _, kern := range kernels {
			if kern.name == "level" && !tc.g.unit {
				continue // the level kernel is only correct on unit weights
			}
			for _, op := range []struct {
				name  string
				limit int
			}{{"Run", -1}, {"RunK", k}} {
				b.Run(fmt.Sprintf("%s/%s/%s", kern.name, op.name, tc.name), func(b *testing.B) {
					s := NewSSSP(tc.g)
					kern.run(s, 0, op.limit) // grow the scratch buffers
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						kern.run(s, NodeID(i*7919%n), op.limit)
					}
				})
			}
		}
		if !tc.g.unit {
			continue
		}
		// 64 parent rows, the landmark forest's unit of work: one Run per
		// root against one batched sweep, both on the calling goroutine.
		roots, rows, reached := make([]NodeID, BatchRoots), make([][]NodeID, BatchRoots), make([]int32, BatchRoots)
		for i := range rows {
			roots[i], rows[i] = NodeID(i*7919%n), make([]NodeID, n)
		}
		b.Run("rows/64xRun/"+tc.name, func(b *testing.B) {
			s := NewSSSP(tc.g)
			for i := 0; i < b.N; i++ {
				for j, root := range roots {
					s.Run(root)
					for v := range rows[j] {
						rows[j][v] = s.Parent(NodeID(v))
					}
				}
			}
		})
		b.Run("rows/batched/"+tc.name, func(b *testing.B) {
			rb := newRowBatch(tc.g)
			for i := 0; i < b.N; i++ {
				rb.sweep(roots, rows, reached)
			}
		})
	}
}

// BenchmarkGraphCopy prices what a repair event pays for its new topology:
// one link out of a G(n,m) graph, and the same link back in.
func BenchmarkGraphCopy(b *testing.B) {
	for _, n := range []int{2048, 4096} {
		g := genGnm(rand.New(rand.NewSource(1)), n, 4*n)
		dead := make([]bool, g.M())
		dead[g.M()/2] = true
		k := g.EdgeList()[g.M()/2]
		failed := g.WithoutEdges(dead)
		back := []WeightedLink{{U: k.U, V: k.V, W: 1}}
		b.Run(fmt.Sprintf("WithoutEdges/gnm-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.WithoutEdges(dead)
			}
		})
		b.Run(fmt.Sprintf("WithEdges/gnm-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				failed.WithEdges(back)
			}
		})
	}
}
