package pathtree

import (
	"math/rand"
	"testing"

	"disco/internal/graph"
	"disco/internal/topology"
)

func TestTreeMatchesSSSP(t *testing.T) {
	g := topology.Gnm(rand.New(rand.NewSource(1)), 120, 480)
	c := NewCache(g, 8)
	s := graph.NewSSSP(g)
	for root := 0; root < 120; root += 11 {
		tr := c.Tree(graph.NodeID(root))
		s.Run(graph.NodeID(root))
		for v := 0; v < 120; v++ {
			if tr.Dist(graph.NodeID(v)) != s.Dist(graph.NodeID(v)) {
				t.Fatalf("dist mismatch at root %d node %d", root, v)
			}
			if tr.Parent(graph.NodeID(v)) != s.Parent(graph.NodeID(v)) {
				t.Fatalf("parent mismatch at root %d node %d", root, v)
			}
		}
	}
}

func TestPathToAndFrom(t *testing.T) {
	g := topology.Line(8)
	c := NewCache(g, 2)
	tr := c.Tree(0)
	to := tr.PathTo(5)
	from := tr.PathFrom(5)
	if len(to) != 6 || to[0] != 0 || to[5] != 5 {
		t.Fatalf("PathTo %v", to)
	}
	if len(from) != 6 || from[0] != 5 || from[5] != 0 {
		t.Fatalf("PathFrom %v", from)
	}
	for i := range to {
		if to[i] != from[len(from)-1-i] {
			t.Fatal("PathTo and PathFrom must be reverses")
		}
	}
}

func TestCacheHitIdentity(t *testing.T) {
	g := topology.Ring(30)
	c := NewCache(g, 4)
	a := c.Tree(3)
	b := c.Tree(3)
	if a != b {
		t.Fatal("cache must return the same tree on a hit")
	}
}

func TestCacheEviction(t *testing.T) {
	g := topology.Ring(30)
	c := NewCache(g, 2)
	t0 := c.Tree(0)
	c.Tree(1)
	c.Tree(2) // evicts root 0 (FIFO)
	if got := c.Tree(0); got == t0 {
		t.Fatal("evicted tree must be recomputed")
	}
	// Still correct after recomputation.
	if c.Tree(0).Dist(15) != 15 {
		t.Fatal("recomputed tree wrong")
	}
}

func TestCapClamp(t *testing.T) {
	g := topology.Ring(10)
	c := NewCache(g, 0)
	if c.Cap() != 1 {
		t.Fatalf("cap %d want clamp to 1", c.Cap())
	}
	c.Tree(0)
	c.Tree(1)
}
