// Package forward is the data plane's forwarding fast path: per-node
// next-hop tables compiled from a snapshot.Snapshot, flattened into sorted
// member-ID columns so answering a route query is a short walk of
// zero-allocation binary searches instead of the fork-and-walk the
// experiments use (fork a protocol view, run the vicinity/landmark checks
// through vicinity.Set and the snapshot's tree reads).
//
// The compiled state per node is its vicinity window as two parallel
// columns — the member IDs ascending, and for each member the index of its
// vicinity parent in the same table — behind a membership bitset.
// Membership and entry lookup is the bitset test plus one binary search of
// the ID column; next hops are parent *indices*, so path reconstruction is
// pointer-chasing within one node's table, never a search. The names are
// flat, so the IDs form no ranges worth indexing (nodeTable's comment has
// the measurement). Landmark forests stay what they already are in the
// snapshot — flat parent rows — shared by reference where the snapshot
// stores them flat and decoded once where it does not (compact regime).
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

// nodeTable is one node's compiled vicinity window, column by column: ids
// is the window's member IDs ascending, parent[i] the index of entry i's
// vicinity parent in the same table (-1 for the owner, whose parent is
// None), and filt/fmask the membership bitset find tests first.
//
// There is no index over ids beyond the array itself. Flat names do not
// aggregate, and the member IDs say so: grouped into maximal runs of
// consecutive IDs a window yields 0.90 runs per entry on G(n,m) n=4096
// (k=222), 0.76 on AS-like n=4096, 0.74 on router-like n=8192 and 0.64 on
// router-like n=2048 — a "run" is 1.1 to 1.6 IDs long, so an interval
// table over them (a lo, hi and start index per run, the shape of a
// longest-prefix-match table) would re-spell ids, and its binary search
// would visit as many elements as a search of ids does.
//
// The bitset stays because it was measured, not assumed: with it removed
// (bench/ serve-tables, seed 1, four alternating pairs) throughput read
// 0.70–0.92M queries/s against 1.11–1.35M with it, behind in 4 of 4, for
// 3.7 MB of 64.0 retained. On the To-Destination walk every hop's window is
// probed for the target and most do not hold it; a clear bit answers that
// in two loads. Bit (id & fmask) is set for every member; the set is sized
// to the ID space (exact, no false positives) up to 8192 bits and is a
// residue filter beyond.
type nodeTable struct {
	ids    []graph.NodeID
	parent []int32
	filt   []uint64
	fmask  uint32
}

// find returns the entry index of member t, or -1 when t is not in the
// window: the bitset test, then one binary search of ids. Zero allocations.
func (nt *nodeTable) find(t graph.NodeID) int32 {
	b := uint32(t) & nt.fmask
	if nt.filt[b>>6]&(1<<(b&63)) == 0 {
		return -1
	}
	ids := nt.ids
	i, j := 0, len(ids)
	for i < j {
		m := int(uint(i+j) >> 1)
		if ids[m] < t {
			i = m + 1
		} else {
			j = m
		}
	}
	if i == len(ids) || ids[i] != t {
		return -1
	}
	return int32(i)
}

// compileNode flattens one vicinity set into its table. The result depends
// only on the set's contents, so concurrent compiles of the same window are
// identical and any one may win the install race. ix is the compiling
// goroutine's member-position scratch over the n node IDs; a parent outside
// the window panics there, as it does in the compact encoder.
func compileNode(set *vicinity.Set, n int, ix vicinity.Index) *nodeTable {
	es := set.Entries
	bitsN := 64
	for bitsN < n && bitsN < 8192 {
		bitsN <<= 1
	}
	nt := &nodeTable{
		ids:    make([]graph.NodeID, len(es)),
		parent: make([]int32, len(es)),
		filt:   make([]uint64, bitsN/64),
		fmask:  uint32(bitsN - 1),
	}
	ix.Bind(es)
	for i := range es {
		b := uint32(es[i].Node) & nt.fmask
		nt.filt[b>>6] |= 1 << (b & 63)
		nt.ids[i] = es[i].Node
		nt.parent[i] = ix.Parent(es, i)
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
