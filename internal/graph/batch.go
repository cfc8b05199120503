package graph

import (
	"math/bits"

	"disco/internal/parallel"
)

// BatchRoots is how many roots ParentRows carries through one shared sweep
// at most: a bit each in a machine word.
const BatchRoots = 64

// rowBatch is the unit-weight kernel behind ParentRows: up to 64
// breadth-first searches advancing through one shared level sweep, root i
// of the batch owning bit i of a word per node (bit-parallel multi-source
// BFS: Then et al., "The More the Merrier", VLDB 2014). seen[v] holds the
// roots that have reached v, frontier[v] those that reached it at the
// level being expanded, next[v] those reaching it at the level after;
// frontier and next are all zero between sweeps. cur and touched list the
// nodes whose frontier and next words are non-zero, so a level costs the
// rows of the nodes some root is at, not n — on a ring that is 128 nodes a
// level, not all of them. A rowBatch is not safe for concurrent use.
type rowBatch struct {
	g                    *Graph
	seen, frontier, next []uint64
	cur, touched         []NodeID
}

func newRowBatch(g *Graph) *rowBatch {
	n := g.N()
	return &rowBatch{g: g, seen: make([]uint64, n), frontier: make([]uint64, n), next: make([]uint64, n)}
}

// sweep fills rows[i] with the parent array SSSP.Run(roots[i]) leaves —
// None at the root and at every node the root does not reach — and
// reached[i] with how many nodes it settles, for up to 64 roots (duplicates
// allowed: each keeps its own bit and row).
//
// A level has two passes. The first pushes every frontier word along its
// node's row into next, minus the roots that have seen the neighbour
// already. The second visits each node reached just now and gives every
// newly arrived root its parent by the rule the level kernel's first touch
// amounts to: the lowest-ID neighbour one level closer to the root. One
// ascending walk of the node's sorted row does it for all roots at once,
// AND-ing the roots still without a parent against each neighbour's
// frontier word.
func (b *rowBatch) sweep(roots []NodeID, rows [][]NodeID, reached []int32) {
	edges, off := b.g.edges, b.g.off
	seen, frontier, next := b.seen, b.frontier, b.next
	clear(seen)
	cur, touched := b.cur[:0], b.touched[:0]
	for i, r := range roots {
		row := rows[i]
		for v := range row {
			row[v] = None
		}
		if seen[r] == 0 {
			cur = append(cur, r)
		}
		seen[r] |= 1 << i
		frontier[r] |= 1 << i
	}
	for len(cur) > 0 {
		for _, u := range cur {
			fu := frontier[u]
			for _, e := range edges[off[u]:off[u+1]] {
				v := e.To
				if arrive := fu &^ seen[v]; arrive != 0 {
					if next[v] == 0 {
						touched = append(touched, v)
					}
					next[v] |= arrive
				}
			}
		}
		for _, v := range touched {
			orphans := next[v]
			seen[v] |= orphans
			for _, e := range edges[off[v]:off[v+1]] {
				adopt := orphans & frontier[e.To]
				if adopt == 0 {
					continue
				}
				for w := adopt; w != 0; w &= w - 1 {
					i := bits.TrailingZeros64(w)
					rows[i][v] = e.To
				}
				if orphans &^= adopt; orphans == 0 {
					break
				}
			}
		}
		for _, u := range cur {
			frontier[u] = 0
		}
		for _, v := range touched {
			frontier[v], next[v] = next[v], 0
		}
		cur, touched = touched, cur[:0]
	}
	b.cur, b.touched = cur, touched
	// Counted off the finished rows: one sequential pass is cheaper than a
	// counter bumped at every scattered parent write above.
	for i, row := range rows {
		count := int32(1) // the root
		for _, p := range row {
			if p != None {
				count++
			}
		}
		reached[i] = count
	}
}

// ParentRows computes the shortest-path tree of every root over the
// parallel worker pool: rows[i], which must hold g.N() entries, receives
// the parent array of the tree rooted at roots[i] — exactly SSSP.Run's
// parents, None at the root and at unreached nodes — and the returned
// slice how many nodes each root reaches. This is the landmark-forest
// sweep (§4.2): on a unit-weight graph the roots go through the batched
// kernel, as many to a shared sweep as still gives every worker a batch;
// on a weighted one each root is a Run of its own. Which it is depends on
// Graph.Unit and nothing else, and the rows do not depend on the batching.
func ParentRows(g *Graph, roots []NodeID, rows [][]NodeID) []int32 {
	g.Finalize()
	width := 0
	if g.unit {
		workers := parallel.Workers()
		width = min(max((len(roots)+workers-1)/workers, 1), BatchRoots)
	}
	return parentRows(g, roots, rows, width)
}

// parentRows is ParentRows at a given batch width; width 0 is one Run per
// root.
func parentRows(g *Graph, roots []NodeID, rows [][]NodeID, width int) []int32 {
	reached := make([]int32, len(roots))
	if width == 0 {
		ForEachSource(g, roots, func(s *SSSP, i int, root NodeID) {
			s.Run(root)
			reached[i] = int32(len(s.Order()))
			for v := range rows[i] {
				rows[i][v] = s.Parent(NodeID(v))
			}
		})
		return reached
	}
	parallel.RunScratch((len(roots)+width-1)/width,
		func() *rowBatch { return newRowBatch(g) },
		func(b *rowBatch, batch int) {
			lo := batch * width
			hi := min(lo+width, len(roots))
			b.sweep(roots[lo:hi], rows[lo:hi], reached[lo:hi])
		})
	return reached
}
