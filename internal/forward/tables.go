// Package forward is the data plane's forwarding fast path: per-node
// next-hop tables compiled from a snapshot.Snapshot, flattened into
// sorted ID-interval arrays so answering a route query is a short walk of
// zero-allocation binary searches instead of the fork-and-walk the
// experiments use (fork a protocol view, run the vicinity/landmark checks
// through vicinity.Set and the snapshot's tree reads).
//
// The compiled state per node is its vicinity window as an interval
// table: the window's member IDs — sorted, and on real topologies heavily
// clustered — are grouped into maximal runs of consecutive IDs, stored as
// parallel (lo, hi, start) arrays. Membership and entry lookup is one
// binary search over the runs plus O(1) indexing within the hit run,
// touching two small cache-resident arrays. Next hops are parent *indices*
// into the same table, so path reconstruction is pointer-chasing within
// one node's table, never a search. Landmark forests stay what they
// already are in the snapshot — flat parent rows — shared by reference
// where the snapshot stores them flat and decoded once where it does not
// (compact regime).
//
// Tables integrate with the repair chain by blast-radius invalidation:
// Derive(rep, st) produces the tables of the repaired child snapshot by
// sharing every compiled shard the event did not touch and dropping
// exactly the windows and rows in the event's RepairStats touched lists
// (VicTouched/RowsTouched), which are recompiled lazily on first use.
// The sharing is sound for the same reason snapshot chaining is: an
// untouched shard is byte-identical between parent and child, folds
// included, and a compiled table is a pure function of its shard's
// content.
//
// Routes are byte-identical to core.NDDisco.route under To-Destination
// shortcutting (RepairedFirstRoute/RepairedLaterRoute) by construction:
// Router mirrors that control flow exactly — direct cases, rehoming,
// JoinPaths backtrack collapse, To-Destination splice — reading the same
// data from the compiled tables. The equivalence suite pins this on base and repaired
// snapshots in both storage regimes.
package forward

import (
	"sync/atomic"

	"disco/internal/graph"
	"disco/internal/parallel"
	"disco/internal/snapshot"
	"disco/internal/vicinity"
)

// nodeTable is one node's compiled vicinity window: the members' sorted
// IDs grouped into maximal consecutive runs (lo[j]..hi[j], with the run's
// first entry at index start[j]), plus per-entry member IDs and parent
// indices for in-table path reconstruction. parent[i] is the index of
// entry i's vicinity parent, or -1 for the owner (whose parent is None).
type nodeTable struct {
	owner  graph.NodeID
	lo, hi []graph.NodeID
	start  []int32
	ids    []graph.NodeID
	parent []int32
	// Membership pre-filter: bit (id & fmask) is set for every member, so
	// a clear bit rejects a non-member in two loads before the binary
	// search — the dominant case on the To-Destination walk, where every
	// hop's window is probed for the target and most don't hold it. Sized
	// to the ID space (exact, zero false positives) up to 8192 bits, a
	// residue filter beyond.
	filt  []uint64
	fmask uint32
}

// findIntervals is the core lookup shared by nodeTable.find and the fuzz
// oracle test: the entry index of t in the (lo, hi, start) interval table,
// or -1 when t lies in no run. lo must be sorted ascending with disjoint
// runs.
func findIntervals(lo, hi []graph.NodeID, start []int32, t graph.NodeID) int32 {
	i, j := 0, len(lo)
	for i < j {
		m := int(uint(i+j) >> 1)
		if lo[m] <= t {
			i = m + 1
		} else {
			j = m
		}
	}
	if i == 0 || t > hi[i-1] {
		return -1
	}
	return start[i-1] + int32(t-lo[i-1])
}

// find returns the entry index of member t, or -1 when t is not in the
// window. Zero allocations.
func (nt *nodeTable) find(t graph.NodeID) int32 {
	b := uint32(t) & nt.fmask
	if nt.filt[b>>6]&(1<<(b&63)) == 0 {
		return -1
	}
	return findIntervals(nt.lo, nt.hi, nt.start, t)
}

// compileNode flattens one vicinity set into its interval table. The
// result depends only on the set's contents, so concurrent compiles of the
// same window are identical and any one may win the install race. ix is the
// compiling goroutine's member-position scratch over the n node IDs; a
// parent outside the window panics there, as it does in the compact
// encoder.
func compileNode(set *vicinity.Set, n int, ix vicinity.Index) *nodeTable {
	es := set.Entries
	nt := &nodeTable{owner: set.Src}
	bitsN := 64
	for bitsN < n && bitsN < 8192 {
		bitsN <<= 1
	}
	nt.fmask = uint32(bitsN - 1)
	nt.filt = make([]uint64, bitsN/64)
	for i := range es {
		b := uint32(es[i].Node) & nt.fmask
		nt.filt[b>>6] |= 1 << (b & 63)
	}
	nt.ids = make([]graph.NodeID, len(es))
	nt.parent = make([]int32, len(es))
	ix.Bind(es)
	for i := range es {
		nt.ids[i] = es[i].Node
		nt.parent[i] = ix.Parent(es, i)
	}
	for i := 0; i < len(es); {
		j := i
		for j+1 < len(es) && es[j+1].Node == es[j].Node+1 {
			j++
		}
		nt.lo = append(nt.lo, es[i].Node)
		nt.hi = append(nt.hi, es[j].Node)
		nt.start = append(nt.start, int32(i))
		i = j + 1
	}
	return nt
}

// Tables is the compiled forwarding state of one snapshot: lazily built,
// atomically installed per-shard tables (one nodeTable per node, one flat
// parent row per landmark). Immutable once compiled; the atomic pointers
// only ever go nil → compiled, and concurrent compiles of one shard
// produce identical tables, so readers need no locks. Safe for any number
// of concurrent Router forks.
type Tables struct {
	snap      *snapshot.Snapshot
	landmarks []graph.NodeID // home-registration order (static.Env.Landmarks)
	lmOf      []graph.NodeID // node -> home landmark (static.Env.LMOf)
	isLM      []bool
	lmRowIdx  []int32 // node -> index into rows, or -1
	nodes     []atomic.Pointer[nodeTable]
	rows      []atomic.Pointer[[]graph.NodeID]
}

// Compile prepares (empty) tables over snap. landmarks and lmOf are the
// converged environment's landmark list and home-landmark assignment —
// name-space state that is independent of topology and shared across
// repairs, exactly as core.NDDisco shares its Env across ForkRepaired.
// Shards compile lazily on first use; call Precompile to pay the whole
// cost up front.
func Compile(snap *snapshot.Snapshot, landmarks, lmOf []graph.NodeID) *Tables {
	n := snap.Graph().N()
	t := &Tables{
		snap:      snap,
		landmarks: landmarks,
		lmOf:      lmOf,
		isLM:      make([]bool, n),
		lmRowIdx:  make([]int32, n),
		nodes:     make([]atomic.Pointer[nodeTable], n),
		rows:      make([]atomic.Pointer[[]graph.NodeID], len(landmarks)),
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

// Snapshot returns the snapshot the tables were compiled from.
func (t *Tables) Snapshot() *snapshot.Snapshot { return t.snap }

// Precompile compiles every shard eagerly over the worker pool — the
// serving mode's warm-up, and what the zero-allocation guarantee on the
// query path assumes (a cold shard's first query pays its compile).
func (t *Tables) Precompile() {
	parallel.RunScratch(len(t.nodes),
		func() vicinity.Index { return make(vicinity.Index, len(t.nodes)) },
		func(ix vicinity.Index, v int) { t.node(graph.NodeID(v), ix) })
	parallel.Run(len(t.rows), func(i int) {
		t.row(int32(i))
	})
}

// node returns v's compiled table, compiling (through the caller's scratch)
// and installing it on first use. The compare-and-swap keeps exactly one
// winner under concurrent first use; both candidates are identical by
// determinism of the compile.
func (t *Tables) node(v graph.NodeID, ix vicinity.Index) *nodeTable {
	if nt := t.nodes[v].Load(); nt != nil {
		return nt
	}
	nt := compileNode(t.snap.Vicinity(v), len(t.nodes), ix)
	if !t.nodes[v].CompareAndSwap(nil, nt) {
		return t.nodes[v].Load()
	}
	return nt
}

// row returns landmark row i's flat parent array, compiling on first use.
// Where the snapshot already stores the row flat (exact regime, repair
// overlays) the array is shared by reference; the compact regime decodes
// it once here and every later read is a plain index.
func (t *Tables) row(i int32) []graph.NodeID {
	if pr := t.rows[i].Load(); pr != nil {
		return *pr
	}
	prow := t.snap.ForestParents(t.landmarks[i])
	if !t.rows[i].CompareAndSwap(nil, &prow) {
		return *t.rows[i].Load()
	}
	return prow
}

// Derive returns the tables of rep — a snapshot produced by one
// ApplyFailures/ApplyRecoveries step on t's snapshot — invalidating
// exactly the event's blast radius: the vicinity windows in st.VicTouched
// and the forest rows in st.RowsTouched are dropped (recompiled lazily
// from rep on first use) and every other compiled shard is carried over.
// st must be the RepairStats of that step (rep.RepairStats()); passing a
// stats object from a different step breaks the sharing contract. t is
// unchanged and stays valid for its own snapshot.
func (t *Tables) Derive(rep *snapshot.Snapshot, st *snapshot.RepairStats) *Tables {
	d := &Tables{
		snap:      rep,
		landmarks: t.landmarks,
		lmOf:      t.lmOf,
		isLM:      t.isLM,
		lmRowIdx:  t.lmRowIdx,
		nodes:     make([]atomic.Pointer[nodeTable], len(t.nodes)),
		rows:      make([]atomic.Pointer[[]graph.NodeID], len(t.rows)),
	}
	for v := range d.nodes {
		d.nodes[v].Store(t.nodes[v].Load())
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

// CompiledShards reports how many node tables and forest rows are
// currently compiled — the white-box observability the invalidation tests
// use to assert untouched shards were carried over, not recompiled.
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
