package addr

import (
	"fmt"
	"math/bits"
	"slices"

	"disco/internal/graph"
)

// IntervalTree implements the fixed-size address variant sketched in §4.2:
// "an address would be fixed at O(log n) bits; each landmark l would
// dynamically partition this block of addresses among its neighbors in
// proportion to their number of descendants, and this would continue
// recursively down the shortest-path tree rooted at l, analogous to a
// hierarchical assignment of IP addresses."
//
// Concretely each landmark tree gets a DFS interval labeling: a node's
// label is its preorder index, its subtree owns the contiguous interval
// [label, label+descendants), and forwarding from the landmark follows the
// unique child whose interval contains the destination label. Labels are
// fixed at ceil(log2(max tree size)) bits — O(log n) — trading the
// variable-length explicit route for a fixed-width label plus per-node
// child-interval state. The paper chose explicit routes because they are
// smaller in practice; BitsPerLabel vs the explicit-route mean makes that
// comparison measurable (see the AblationAddressing bench).
type IntervalTree struct {
	bitsPerLabel int
	label        []uint64       // preorder index within the node's tree
	desc         []uint64       // subtree size (including self)
	parent       []graph.NodeID // tree parent (None at landmarks)
	children     [][]graph.NodeID
}

// BuildIntervals computes the interval labeling over a landmark
// shortest-path forest: parent[v] is v's predecessor on the path l_v ⇝ v
// (graph.None at landmarks).
func BuildIntervals(parent []graph.NodeID) *IntervalTree {
	n := len(parent)
	t := &IntervalTree{
		bitsPerLabel: 1,
		label:        make([]uint64, n),
		desc:         make([]uint64, n),
		parent:       append([]graph.NodeID(nil), parent...),
		children:     make([][]graph.NodeID, n),
	}
	roots := make([]graph.NodeID, 0)
	for v := 0; v < n; v++ {
		if parent[v] == graph.None {
			roots = append(roots, graph.NodeID(v))
			continue
		}
		t.children[parent[v]] = append(t.children[parent[v]], graph.NodeID(v))
	}
	for v := range t.children {
		c := t.children[v]
		slices.Sort(c)
	}
	maxTree := uint64(1)
	for _, r := range roots {
		size := t.dfsLabel(r, 0)
		if size > maxTree {
			maxTree = size
		}
	}
	t.bitsPerLabel = bits.Len64(maxTree - 1)
	if t.bitsPerLabel == 0 {
		t.bitsPerLabel = 1
	}
	return t
}

// dfsLabel assigns preorder labels below v starting at next; returns v's
// subtree size. Iterative to survive deep trees (a ring's landmark tree is
// a path of length n/2).
func (t *IntervalTree) dfsLabel(root graph.NodeID, start uint64) uint64 {
	// First pass: subtree sizes, children processed after all theirs
	// (post-order via explicit stack).
	type frame struct {
		v    graph.NodeID
		next int
	}
	stack := []frame{{v: root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(t.children[f.v]) {
			c := t.children[f.v][f.next]
			f.next++
			stack = append(stack, frame{v: c})
			continue
		}
		t.desc[f.v] = 1
		for _, c := range t.children[f.v] {
			t.desc[f.v] += t.desc[c]
		}
		stack = stack[:len(stack)-1]
	}
	// Second pass: preorder labels.
	t.label[root] = start
	order := []graph.NodeID{root}
	for len(order) > 0 {
		v := order[len(order)-1]
		order = order[:len(order)-1]
		next := t.label[v] + 1
		for _, c := range t.children[v] {
			t.label[c] = next
			next += t.desc[c]
			order = append(order, c)
		}
	}
	return t.desc[root]
}

// BitsPerLabel returns the fixed label width: ceil(log2(max tree size)).
func (t *IntervalTree) BitsPerLabel() int { return t.bitsPerLabel }

// LabelOf returns v's fixed-size label within its landmark's tree.
func (t *IntervalTree) LabelOf(v graph.NodeID) uint64 { return t.label[v] }

// ChildIntervals returns v's forwarding table in this scheme: each child
// with the label interval it owns. This is the per-node state the variant
// trades the explicit route for.
func (t *IntervalTree) ChildIntervals(v graph.NodeID) []struct {
	Child  graph.NodeID
	Lo, Hi uint64
} {
	out := make([]struct {
		Child  graph.NodeID
		Lo, Hi uint64
	}, 0, len(t.children[v]))
	for _, c := range t.children[v] {
		out = append(out, struct {
			Child  graph.NodeID
			Lo, Hi uint64
		}{Child: c, Lo: t.label[c], Hi: t.label[c] + t.desc[c]})
	}
	return out
}

// Route walks from the landmark down to the node labeled `label`, at each
// hop following the unique child whose interval contains the label.
func (t *IntervalTree) Route(lm graph.NodeID, label uint64) ([]graph.NodeID, error) {
	if t.parent[lm] != graph.None {
		return nil, fmt.Errorf("addr: %d is not a landmark/tree root", lm)
	}
	if label >= t.desc[lm] {
		return nil, fmt.Errorf("addr: label %d outside tree of %d (size %d)", label, lm, t.desc[lm])
	}
	path := []graph.NodeID{lm}
	cur := lm
	for t.label[cur] != label {
		next := graph.None
		for _, c := range t.children[cur] {
			if label >= t.label[c] && label < t.label[c]+t.desc[c] {
				next = c
				break
			}
		}
		if next == graph.None {
			return nil, fmt.Errorf("addr: label %d unroutable at node %d", label, cur)
		}
		path = append(path, next)
		cur = next
	}
	return path, nil
}
