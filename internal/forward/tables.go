// Package forward is the data plane's forwarding fast path: per-node
// next-hop tables over a snapshot.Snapshot, so answering a route query is a
// short walk of zero-allocation lookups.
//
// A node's table is its vicinity window as the snapshot holds it — a
// vicinity.Window: member IDs ascending, parent indices, the membership
// bitset — installed, not compiled: the exact regime hands out its stored
// window, the compact regime decodes one once. Membership and entry lookup
// is Window.Find; next hops are parent indices, so path reconstruction is
// pointer-chasing within one window, never a search. Landmark forests stay
// what they already are in the snapshot — flat parent rows, installed as
// snapshot.Row views — shared by reference where the snapshot stores them
// flat and decoded once where it does not (compact regime).
//
// Tables integrate with the repair chain by blast-radius invalidation:
// Derive(rep, st) produces the tables of the repaired child snapshot by
// sharing every installed shard the event did not touch and dropping
// exactly the windows and rows in the event's RepairStats touched lists
// (VicTouched/RowsTouched), which are installed again lazily on first use.
// The sharing is sound for the same reason snapshot chaining is: an
// untouched shard is byte-identical between parent and child, folds
// included.
//
// Routes are byte-identical to core.NDDisco's walk under To-Destination
// shortcutting (RepairedFirstRoute/RepairedLaterRoute) by construction:
// Router mirrors that control flow exactly — direct cases, rehoming,
// the dynamics.AppendJoin backtrack collapse, To-Destination splice —
// reading the same
// windows and rows. The equivalence suite pins this on base and repaired
// snapshots in both storage regimes.
//
// Outside its own tests the package is called only from bench/, which
// times serve-tables through Compile, Precompile and Derive; discosim's
// serving mode routes on core.Disco forks.
package forward

import (
	"sync/atomic"

	"disco/internal/graph"
	"disco/internal/parallel"
	"disco/internal/snapshot"
	"disco/internal/vicinity"
)

// Tables is the forwarding state of one snapshot: lazily, atomically
// installed per-shard tables (one window per node, one flat parent row per
// landmark). Immutable once installed; the atomic pointers only ever go
// nil → installed, and concurrent installs of one shard hold identical
// contents, so readers need no locks. Safe for any number of concurrent
// Router forks.
type Tables struct {
	snap      *snapshot.Snapshot
	landmarks []graph.NodeID // home-registration order (static.Env.Landmarks)
	lmOf      []graph.NodeID // node -> home landmark (static.Env.LMOf)
	isLM      []bool
	lmRowIdx  []int32 // node -> index into rows, or -1
	nodes     []atomic.Pointer[vicinity.Window]
	rows      []atomic.Pointer[snapshot.Row]
}

// Compile prepares (empty) tables over snap. landmarks and lmOf are the
// converged environment's landmark list and home-landmark assignment —
// name-space state that is independent of topology and shared across
// repairs, exactly as core.NDDisco shares its Env across ForkRepaired.
// Shards install lazily on first use; call Precompile to pay the whole
// cost up front.
func Compile(snap *snapshot.Snapshot, landmarks, lmOf []graph.NodeID) *Tables {
	n := snap.Graph().N()
	t := &Tables{
		snap:      snap,
		landmarks: landmarks,
		lmOf:      lmOf,
		isLM:      make([]bool, n),
		lmRowIdx:  make([]int32, n),
		nodes:     make([]atomic.Pointer[vicinity.Window], n),
		rows:      make([]atomic.Pointer[snapshot.Row], len(landmarks)),
	}
	for v := range t.lmRowIdx {
		t.lmRowIdx[v] = -1
	}
	for i, lm := range landmarks {
		t.isLM[lm] = true
		t.lmRowIdx[lm] = int32(i)
	}
	return t
}

// Precompile installs every shard eagerly over the worker pool — the
// serving mode's warm-up, and what the zero-allocation guarantee on the
// query path assumes (a cold shard's first query pays its install, a
// decode in the compact regime).
func (t *Tables) Precompile() {
	parallel.Run(len(t.nodes), func(v int) { t.node(graph.NodeID(v)) })
	parallel.Run(len(t.rows), func(i int) { t.row(int32(i)) })
}

// node returns v's window, installing the snapshot's on first use. The
// compare-and-swap keeps exactly one winner under concurrent first use;
// both candidates hold the same window.
func (t *Tables) node(v graph.NodeID) *vicinity.Window {
	if w := t.nodes[v].Load(); w != nil {
		return w
	}
	w := t.snap.Vicinity(v)
	if !t.nodes[v].CompareAndSwap(nil, w) {
		return t.nodes[v].Load()
	}
	return w
}

// row returns landmark row i, installing it on first use. Where the
// snapshot already stores the row flat (exact regime, repair overlays) it
// is shared by reference; the compact regime decodes it once here and
// every later read is a plain index.
func (t *Tables) row(i int32) snapshot.Row {
	if pr := t.rows[i].Load(); pr != nil {
		return *pr
	}
	prow := t.snap.ForestRow(t.landmarks[i])
	if !t.rows[i].CompareAndSwap(nil, &prow) {
		return *t.rows[i].Load()
	}
	return prow
}

// Derive returns the tables of rep — a snapshot produced by one
// ApplyFailures/ApplyRecoveries step on t's snapshot — invalidating
// exactly the event's blast radius: the vicinity windows in st.VicTouched
// and the forest rows in st.RowsTouched are dropped (installed lazily
// from rep on first use) and every other installed shard is carried over.
// An exact-regime window is carried as rep's own copy of it — the same
// window, or after a fold its equal in the fresh store — read for free, so
// the tables never keep a folded-away store alive; a compact-regime one is
// the decode already paid for. st must be the RepairStats of that step
// (rep.RepairStats()); passing a stats object from a different step breaks
// the sharing contract. t is unchanged and stays valid for its own
// snapshot.
func (t *Tables) Derive(rep *snapshot.Snapshot, st *snapshot.RepairStats) *Tables {
	d := &Tables{
		snap:      rep,
		landmarks: t.landmarks,
		lmOf:      t.lmOf,
		isLM:      t.isLM,
		lmRowIdx:  t.lmRowIdx,
		nodes:     make([]atomic.Pointer[vicinity.Window], len(t.nodes)),
		rows:      make([]atomic.Pointer[snapshot.Row], len(t.rows)),
	}
	for v := range d.nodes {
		w := t.nodes[v].Load()
		if w != nil && !rep.Compact() {
			w = rep.Vicinity(graph.NodeID(v))
		}
		d.nodes[v].Store(w)
	}
	for i := range d.rows {
		d.rows[i].Store(t.rows[i].Load())
	}
	for _, v := range st.VicTouched {
		d.nodes[v].Store(nil)
	}
	for _, row := range st.RowsTouched {
		d.rows[row].Store(nil)
	}
	return d
}

// CompiledShards reports how many node windows and forest rows are
// currently installed — the white-box observability the invalidation tests
// use to assert untouched shards were carried over, not installed again.
func (t *Tables) CompiledShards() (nodes, rows int) {
	for v := range t.nodes {
		if t.nodes[v].Load() != nil {
			nodes++
		}
	}
	for i := range t.rows {
		if t.rows[i].Load() != nil {
			rows++
		}
	}
	return nodes, rows
}
