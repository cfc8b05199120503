// Incremental snapshot repair: ApplyFailures turns an immutable snapshot
// plus a set of failed links into a new snapshot of the failed topology by
// recomputing only the affected region, sharing everything else with the
// parent copy-on-write; ApplyRecoveries is its dual, restoring links and
// repairing the same blast radius in reverse. Repair cost then tracks the
// event's blast radius instead of n — the property that makes continuous
// churn affordable at the paper-scale sizes the compact encoding unlocked.
//
// What "affected" means is exact, not heuristic: a window or row is
// recomputed only when the event changes it. It rests on facts about the
// deterministic Dijkstra in internal/graph, on a graph whose links all
// weigh more than 0 and never two join one pair (graph refuses any other):
// nodes settle in (distance, node ID) order, and a node's parent is the
// earliest-settled neighbour that reaches its final distance
// (strict-improvement updates). A full window V(x) is the first k nodes to
// settle from x, so its last-settled member — the highest ID at its radius
// — is the boundary a non-member must beat to enter.
//
//   - Failed links: V(x) changes iff some failed link is a TREE edge of the
//     window — both endpoints members, one the other's parent. Removing a
//     non-tree link removes no member's path to x, so every member keeps its
//     distance, every non-member's can only grow, and every member keeps its
//     earliest-settled parent. A removed tree link takes its child's parent
//     away, so the window does change. Several failed links compose: a
//     window none of them is a tree edge of keeps every tree edge. A tree
//     edge's endpoints are members, so the candidates are the windows
//     holding both within their radius on the pre-event graph, found by
//     the search restored links use (windowCandidates).
//   - Failed links, forest rows: a row changes iff some failed link is one
//     of its tree edges, by the same argument. Only the subtree below such
//     an edge — the nodes it orphans — can move: it is re-settled from its
//     neighbours outside it, and a node it cannot reach again is cut off
//     (rows.go).
//   - Restored links, full windows: a window changes only if some new route
//     runs over a restored link, which puts BOTH endpoints within the
//     window's radius of x on the recovered topology — the search failed
//     links use, run there: a maxRadius Dijkstra ball around each endpoint,
//     intersected per link, encloses every candidate. (A ball sums a path's
//     weights from the far end, so on float weights its distances are
//     compared with a slack: sumSlack.)
//     Each candidate's pre-event window then decides. With u a member at
//     distance du, the link u–v of weight w changes V(x) iff (a) v is a
//     member and du+w < dist(v): a strict improvement; (b) v is a member,
//     du+w == dist(v), and u settles before v's parent: a tie that steals
//     the parent; or (c) v is no member and (du+w, v) settles before the
//     last-settled member: v enters. No other node can move first: the
//     first node a new route improves is reached over a restored link from
//     a node that kept its distance, so it is (a) or (c) for that link, and
//     a parent changes only through (b). The per-link tests therefore
//     compose over a multi-link event by OR, each against the pre-event
//     window. A window with neither endpoint a member cannot change: every
//     route over the link is longer than its radius.
//   - Restored links, shortfall windows (fewer than k members, i.e. a
//     disconnected region): they can regain members at any distance, so
//     every shortfall window in a component containing a restored endpoint
//     is recomputed.
//   - Restored links, forest rows: a row moves a distance only where a
//     restored link strictly improves an endpoint's (a reconnection counts:
//     the old distance is +Inf). The strict improvements propagate from
//     there into one region, which is re-settled, and parents are
//     re-derived over the region, its neighbours and the restored
//     endpoints. With no improvement that leaves an exact distance tie,
//     ubiquitous on unit-weight topologies, which can steal at most the
//     tie node's parent (rows.go).
//
// Every touched forest row lands in the overlay as a sparse row, its
// difference from the base store's row (store.go): the parents the event
// moved, written over the row's earlier patches. A repair reads single
// fields of a row, never the whole row, and over a compact store no
// n-length row outlives its event; over an exact one the overlay keeps the
// patched row flat beside its patches.
//
// The pipeline is shard-parallel end to end over internal/parallel with
// task-ordered merges — ball searches, window recomputes, per-row repair,
// diff accounting, and both fold encoders all fan out, and every merge
// happens in task index order — so the result is bit-identical at any
// worker count. The exact window tests and the diff accounting read a
// compact pre-event window in place, field by field through its ID code,
// and decode none.
//
// Chains compose: a repaired snapshot can be repaired or recovered again.
// Two mechanisms keep a long repair-of-repair chain from leaking history:
//
//   - Copy-on-write overlay tables: a chained snapshot holds the chain
//     base's shard store plus its own flat table of repaired shards
//     (store.go): its parent's slots copied, this event's blast radius
//     written over them, never a pointer to the previous snapshot. An
//     event costs its blast radius plus an O(n + landmarks) pointer copy,
//     and dropping intermediate snapshots frees the shards only they held.
//   - Compaction: when the table's overlaid-shard count exceeds
//     foldOverlayFraction of the snapshot's shards, the chain is folded
//     into a fresh base-format store (both regimes), an O(state) re-encode
//     with no Dijkstra. A compact fold copies untouched windows as byte
//     ranges and carries every forest port whose node kept its neighbour
//     list and its parent (compact.go), so its cost is one pass over the
//     old store plus the overlay's re-encode. A fold also sets maxRadius
//     to the folded windows' largest radius. CanonicalBytes is invariant
//     under folding, so chained equivalence with a from-scratch build holds
//     at every step.
//
// Unlike Build/BuildCompact, ApplyFailures does NOT require the failed
// topology to stay connected — that is the point of failure scenarios.
// Repaired vicinity windows may hold fewer than k entries and repaired
// forest rows mark cut-off nodes with graph.None (see Reaches); on a
// still-connected topology the repaired snapshot is byte-identical (in
// CanonicalBytes form) to a from-scratch rebuild.
package snapshot

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"disco/internal/graph"
	"disco/internal/parallel"
	"disco/internal/vicinity"
)

// foldOverlayFraction is the compaction threshold: once a chained repair's
// overlay holds distinct shards exceeding this fraction of the snapshot's
// shard count, the chain is folded into fresh base storage. One-shot
// repairs of a built snapshot never fold (their overlay dies with them);
// only chains pay the fold.
const foldOverlayFraction = 0.25

// RepairStats reports what one ApplyFailures/ApplyRecoveries call
// recomputed versus shared. "Shards" are the snapshot's repair units:
// per-node vicinity windows and per-landmark forest rows.
type RepairStats struct {
	FailedLinks   int  // deduplicated links removed by this repair
	RestoredLinks int  // deduplicated links restored by this recovery
	VicRebuilt    int  // vicinity windows recomputed
	VicTotal      int  // = n
	RowsRebuilt   int  // forest rows re-settled: a failure's, or a recovery's that moves a distance
	RowsPatched   int  // forest rows where only parents moved (a recovery's exact ties)
	RowsTotal     int  // = number of landmarks
	Candidates    int  // nodes the endpoint balls settled, summed over distinct endpoints
	Folded        bool // the chain overlay hit the compaction threshold

	// The changed-state measure the message model prices: recomputing a
	// shard is this layer's cost, but a distributed protocol only pays
	// messages for routes that actually changed. VicChanged counts
	// recomputed windows that differ from the pre-event state,
	// VicEntriesChanged the per-entry symmetric difference (withdrawn +
	// announced routes), and RowNodesChanged the forest parent fields that
	// moved (tie patches included).
	VicChanged        int
	VicEntriesChanged int
	RowNodesChanged   int

	// The event's touched-shard lists — the exact invalidation set a
	// derived structure built from the parent snapshot (forwarding
	// tables, caches) must rebuild; every shard not listed here is
	// byte-identical between the parent and this snapshot, folds included.
	// VicTouched lists, ascending, the nodes whose vicinity windows this
	// event recomputed; RowsTouched the forest rows re-settled or patched,
	// each of which differs from the parent's row. Since repair recomputes
	// only the windows an event changes, VicTouched is also exactly the
	// changed windows (VicRebuilt == VicChanged) wherever the event leaves
	// no window short. Both are shared slices: every copy RepairStats
	// returns aliases the snapshot's own lists, so they are read, never
	// written — the one convention of the sealed surface that no type
	// carries.
	VicTouched  []graph.NodeID
	RowsTouched []int
}

// ShardsRebuilt returns the fraction of shards this repair recomputed or
// re-settled (VicRebuilt plus RowsRebuilt) — the blast-radius cost measure
// the repair-equivalence test bounds. A zero-shard snapshot (no nodes, no
// landmarks) reports 0, not NaN. Patched rows are not counted: a patch
// rewrites a parent field, not a shard.
func (st *RepairStats) ShardsRebuilt() float64 {
	total := st.VicTotal + st.RowsTotal
	if total == 0 {
		return 0
	}
	return float64(st.VicRebuilt+st.RowsRebuilt) / float64(total)
}

// RepairStats returns a copy of the statistics of the repair that
// produced this snapshot, or nil for snapshots built from scratch. Writing
// through the result changes no snapshot; its touched lists are shared.
func (s *Snapshot) RepairStats() *RepairStats {
	if !s.repaired {
		return nil
	}
	st := s.stats
	return &st
}

// OverlayShards returns the number of shards (vicinity windows plus forest
// rows) held by this snapshot's repair overlay table — the working-set
// cost of the chain beyond its shared base. 0 for snapshots built from
// scratch and for freshly folded chains. The compaction contract bounds it
// below foldOverlayFraction of the shard count plus one event's blast
// radius, which the long-chain test asserts.
func (s *Snapshot) OverlayShards() int {
	if s.ov == nil {
		return 0
	}
	return s.ov.shards
}

// ApplyFailures returns a snapshot of this snapshot's topology minus the
// given links, recomputing only the vicinity windows and forest rows the
// failures change and sharing every untouched shard with s (which
// stays valid and immutable — restoring a flapped link is free: route on
// the parent again). Links are deduplicated; a link that does not exist is
// an error. The result may describe a disconnected topology: windows
// shrink below k and forest rows lose nodes (Reaches reports which), so
// delivery ratio — not an error — is how experiments observe partitions.
// Chains compose: a repaired snapshot can be repaired again.
func (s *Snapshot) ApplyFailures(fails []graph.EdgeKey) (*Snapshot, error) {
	n := s.g.N()
	dead := make([]bool, s.g.M())
	uniq := make([]graph.EdgeKey, 0, len(fails))
	for _, f := range fails {
		f = f.Norm()
		if f.U == f.V || f.U < 0 || int(f.V) >= n {
			return nil, fmt.Errorf("snapshot: invalid link %d-%d", f.U, f.V)
		}
		id := s.g.EdgeID(f.U, f.V)
		if id < 0 {
			return nil, fmt.Errorf("snapshot: no link %d-%d to fail", f.U, f.V)
		}
		if dead[id] {
			continue
		}
		dead[id] = true
		uniq = append(uniq, f)
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("snapshot: ApplyFailures needs at least one link")
	}
	fg := s.g.WithoutEdges(dead)

	affVic, scanned := s.windowCandidates(s.g, uniq, func(x graph.NodeID, i int) bool {
		return s.carriesTreeLink(x, uniq[i])
	})
	wins := recomputeWindows(fg, affVic, s.k)

	rowIdx, edits, _ := s.repairRows(fg, func(rs *rowSettler, row int) rowRepair { return rs.fail(row, uniq) })
	return s.finishRepair(fg, affVic, wins, rowIdx, edits, RepairStats{
		FailedLinks: len(uniq),
		VicRebuilt:  len(affVic),
		VicTotal:    n,
		RowsRebuilt: len(rowIdx),
		RowsTotal:   len(s.landmarks),
		Candidates:  scanned,
	}), nil
}

// ApplyRecoveries returns a snapshot of this snapshot's topology plus the
// given restored links — the dual of ApplyFailures, repairing the same
// blast radius in reverse. Each restored link must not currently exist
// (restore what failed, with the weight the failed graph no longer
// records). A link given twice at one weight counts once; at two weights,
// or at a weight that is not positive and finite, it is an error. On a
// connected result the recovered snapshot is byte-identical (in
// CanonicalBytes form) to a from-scratch build of the recovered topology.
func (s *Snapshot) ApplyRecoveries(restores []graph.WeightedLink) (*Snapshot, error) {
	n := s.g.N()
	seen := make(map[graph.EdgeKey]float64, len(restores))
	uniq := make([]graph.WeightedLink, 0, len(restores))
	for _, r := range restores {
		key := (graph.EdgeKey{U: r.U, V: r.V}).Norm()
		if key.U == key.V || key.U < 0 || int(key.V) >= n {
			return nil, fmt.Errorf("snapshot: invalid link %d-%d", r.U, r.V)
		}
		if !(r.W > 0) || math.IsInf(r.W, 1) {
			return nil, fmt.Errorf("snapshot: weight %v on restored link %d-%d is not positive and finite", r.W, r.U, r.V)
		}
		if s.g.EdgeID(key.U, key.V) >= 0 {
			return nil, fmt.Errorf("snapshot: link %d-%d is already alive", key.U, key.V)
		}
		if w, dup := seen[key]; dup {
			if w != r.W {
				return nil, fmt.Errorf("snapshot: link %d-%d restored at weights %v and %v", key.U, key.V, w, r.W)
			}
			continue
		}
		seen[key] = r.W
		uniq = append(uniq, graph.WeightedLink{U: key.U, V: key.V, W: r.W})
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("snapshot: ApplyRecoveries needs at least one link")
	}
	// Canonical restore order, so identical link sets produce identical
	// graphs (and so identical snapshots) regardless of caller ordering.
	slices.SortFunc(uniq, func(a, b graph.WeightedLink) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
	ng := s.g.WithEdges(uniq)

	affVic, scanned := s.recoveryVicinities(uniq, ng)
	wins := recomputeWindows(ng, affVic, s.k)
	rowIdx, edits, resettled := s.repairRows(ng, func(rs *rowSettler, row int) rowRepair { return rs.recover(row, uniq) })

	return s.finishRepair(ng, affVic, wins, rowIdx, edits, RepairStats{
		RestoredLinks: len(uniq),
		VicRebuilt:    len(affVic),
		VicTotal:      n,
		RowsRebuilt:   resettled,
		RowsPatched:   len(rowIdx) - resettled,
		RowsTotal:     len(s.landmarks),
		Candidates:    scanned,
	}), nil
}

// diffWindows returns the symmetric difference between a window's
// pre-event state old, its member IDs in ids, and its recomputed state new:
// removed members, added members, and members whose parent or distance
// moved — the withdrawals plus announcements a triggered protocol would
// send for this window. Parents compare as node IDs, so a member keeps its
// route when its parent does, wherever the parent sits. The IDs come as a
// column (Snapshot.AppendMembers): a compact ID field is a select.
func diffWindows[W windowFields](old W, ids []graph.NodeID, new *vicinity.Window) int {
	d, i, j := 0, 0, 0
	for i < len(ids) && j < new.Size() {
		switch a, b := ids[i], new.ID(j); {
		case a < b:
			d++ // withdrawn
			i++
		case a > b:
			d++ // announced
			j++
		default:
			p := graph.None
			if q := old.Parent(i); q >= 0 {
				p = ids[q]
			}
			if p != parentID(new, j) || old.Dist(i) != new.Dist(j) {
				d++
			}
			i++
			j++
		}
	}
	return d + (len(ids) - i) + (new.Size() - j)
}

// parentID returns member i's parent as a node ID, graph.None for the
// owner — the form the change accounting and CanonicalBytes compare.
func parentID(w *vicinity.Window, i int) graph.NodeID {
	if p := w.Parent(i); p >= 0 {
		return w.ID(p)
	}
	return graph.None
}

// recomputeWindows rebuilds the given vicinity windows on graph g with one
// truncated Dijkstra each, over the worker pool — the same windows in both
// regimes, since the compact encoding is lossless.
func recomputeWindows(g *graph.Graph, affVic []graph.NodeID, k int) []*vicinity.Window {
	return parallel.MapScratch(len(affVic),
		func() *vicinity.Ball { return vicinity.NewBall(g) },
		func(b *vicinity.Ball, i int) *vicinity.Window {
			win := &vicinity.MakeWindows(g, 1, k)[0]
			b.Fill(win, affVic[i], k)
			return win
		})
}

// rowEdit is one touched forest row's new state: its patches against the
// base store's row (nil when it is the base row again) and how many of its
// parents moved against the pre-event row.
type rowEdit struct {
	sr    *sparseRow
	moved int
}

// patchEdit returns the edit of a row's patches, ascending by node and each
// a parent that moves: the row's patches so far with these written over
// them, and a patch back to the base row's parent dropped. Over an exact
// store the patched row is also kept flat.
func (s *Snapshot) patchEdit(row int, patches []rowPatch) rowEdit {
	wasNodes, wasParents := s.ov.row(row).patches()
	nodes := make([]graph.NodeID, 0, len(wasNodes)+len(patches))
	parents := make([]graph.NodeID, 0, cap(nodes))
	i := 0
	for _, pc := range patches {
		for ; i < len(wasNodes) && wasNodes[i] < pc.v; i++ {
			nodes, parents = append(nodes, wasNodes[i]), append(parents, wasParents[i])
		}
		if i < len(wasNodes) && wasNodes[i] == pc.v {
			i++
		}
		if pc.p != s.baseParent(row, pc.v) {
			nodes, parents = append(nodes, pc.v), append(parents, pc.p)
		}
	}
	nodes, parents = append(nodes, wasNodes[i:]...), append(parents, wasParents[i:]...)
	e := rowEdit{sr: newSparseRow(s.g.N(), nodes, parents), moved: len(patches)}
	if e.sr != nil && s.cs == nil {
		e.sr.flatten(s.exactRow(row))
	}
	return e
}

// finishRepair assembles the repaired snapshot: the base shard store
// shared by reference, the parent's overlay table copied with this event's
// recomputed shards written over it, maxRadius and the shortfall list
// updated, and the chain folded into a fresh store when the table's shard
// count crosses the compaction threshold. The event's shards arrive as
// ascending parallel slices: affVic with wins, rowIdx with edits.
func (s *Snapshot) finishRepair(ng *graph.Graph, affVic []graph.NodeID, wins []*vicinity.Window, rowIdx []int, edits []rowEdit, stats RepairStats) *Snapshot {
	// Changed-state accounting against the pre-event snapshot, fanned out
	// over the worker pool (order-independent integer sums): a compact
	// pre-event window is read in place, its IDs into the worker's buffer;
	// the rows counted theirs as they were edited.
	n := ng.N()
	vicDiffs := parallel.MapScratch(len(affVic),
		func() *[]graph.NodeID { return new([]graph.NodeID) },
		func(ids *[]graph.NodeID, i int) int {
			x := affVic[i]
			*ids = s.AppendMembers((*ids)[:0], x)
			if old := s.stored(x); old != nil {
				return diffWindows(old, *ids, wins[i])
			}
			return diffWindows(inPlace{s.cs.pointed(x)}, *ids, wins[i])
		})
	for _, d := range vicDiffs {
		if d > 0 {
			stats.VicChanged++
			stats.VicEntriesChanged += d
		}
	}
	for _, e := range edits {
		stats.RowNodesChanged += e.moved
	}
	stats.VicTouched = affVic
	stats.RowsTouched = rowIdx

	c := &Snapshot{
		g: ng, k: s.k,
		wins: s.wins, parents: s.parents, cs: s.cs,
		landmarks: s.landmarks, lmRow: s.lmRow,
		maxRadius: s.maxRadius,
		repaired:  true, stats: stats,
		ov: deriveOverlay(s.ov, n, len(s.landmarks), affVic, wins, rowIdx, edits),
	}
	// Shortfall bookkeeping: a recomputed window leaves or (re)enters the
	// list according to its new size; every other entry carries over.
	for _, v := range s.short {
		if _, hit := slices.BinarySearch(affVic, v); !hit {
			c.short = append(c.short, v)
		}
	}
	for i, v := range affVic {
		c.maxRadius = max(c.maxRadius, wins[i].Radius())
		if wins[i].Size() < c.k {
			c.short = append(c.short, v)
		}
	}
	slices.Sort(c.short)

	// Compaction: only chains fold (s already repaired). A one-shot repair
	// of a built snapshot keeps its overlay — it dies with the snapshot.
	if s.repaired {
		total := n + len(s.landmarks)
		if float64(c.ov.shards) > foldOverlayFraction*float64(total) {
			return c.fold()
		}
	}
	return c
}

// windowFields is a window as repair's exact tests read it, a field at a
// time: a *vicinity.Window (overlaid, or in an exact store), or a compact
// base window read in place (inPlace), which decodes no column.
type windowFields interface {
	Size() int
	Radius() float64
	ID(i int) graph.NodeID
	Parent(i int) int
	Dist(i int) float64
	Find(w graph.NodeID) int
}

// inPlace is a compact base window as repair's tests take it: pointed, by
// value. A type parameter's method call is opaque to escape analysis, so
// a *pointed handed to a test would move to the heap, an allocation a
// tested window; a copy per call stays on the stack.
type inPlace struct{ p pointed }

func (w inPlace) Size() int               { return w.p.Size() }
func (w inPlace) Radius() float64         { return w.p.Radius() }
func (w inPlace) ID(i int) graph.NodeID   { return w.p.ID(i) }
func (w inPlace) Parent(i int) int        { return w.p.Parent(i) }
func (w inPlace) Dist(i int) float64      { return w.p.Dist(i) }
func (w inPlace) Find(v graph.NodeID) int { return w.p.Find(v) }

// carriesTreeLink reports whether link f is a tree edge of V(x): both
// endpoints members, one the other's parent. A compact base window is read
// in place: two pointed probes, and two parent fields when both hit.
func (s *Snapshot) carriesTreeLink(x graph.NodeID, f graph.EdgeKey) bool {
	if win := s.stored(x); win != nil {
		return treeLink(win, f)
	}
	return treeLink(inPlace{s.cs.pointed(x)}, f)
}

// treeLink is carriesTreeLink's test on the window.
func treeLink[W windowFields](win W, f graph.EdgeKey) bool {
	iu := win.Find(f.U)
	if iu < 0 {
		return false
	}
	iv := win.Find(f.V)
	return iv >= 0 && (win.Parent(iv) == iu || win.Parent(iu) == iv)
}

// windowCandidates returns, sorted, every node x for which test accepts
// some link of links, plus how many nodes the endpoint balls settled. Both
// repair directions find their windows here, on the graph g where the
// windows' distances hold (the pre-event graph for failures, the recovered
// one for restores): a link can change V(x) only if both its endpoints lie
// within V(x)'s radius there. A maxRadius Dijkstra ball around each
// distinct endpoint encloses every such x, the two balls of a link are
// intersected, and x is kept for test(x, i) only where both of link i's
// ball distances are within V(x)'s radius, read off the store (windowMeta)
// without decoding. test decides exactly, reading a compact window in
// place. The ball searches and the per-link sweeps fan out over the worker
// pool, and the merge is a sort and dedup of the per-link lists, so the
// result is worker-count invariant.
func (s *Snapshot) windowCandidates(g *graph.Graph, links []graph.EdgeKey, test func(x graph.NodeID, i int) bool) ([]graph.NodeID, int) {
	eps := make([]graph.NodeID, 0, 2*len(links))
	for _, l := range links {
		eps = append(eps, l.U, l.V)
	}
	slices.Sort(eps)
	eps = slices.Compact(eps)
	bound := ballBound(s.maxRadius)
	// An endpoint's ball: its nodes in settle order, and their distances.
	type ball struct {
		nodes []graph.NodeID
		dist  []float64
	}
	balls := parallel.MapScratch(len(eps),
		func() *graph.SSSP { return graph.NewSSSP(g) },
		func(sp *graph.SSSP, i int) ball {
			sp.RunRadius(eps[i], bound)
			b := ball{nodes: slices.Clone(sp.Order()), dist: make([]float64, len(sp.Order()))}
			for j, x := range b.nodes {
				b.dist[j] = sp.Dist(x)
			}
			return b
		})
	scanned := 0
	for _, b := range balls {
		scanned += len(b.nodes)
	}
	ballOf := func(x graph.NodeID) ball {
		i, _ := slices.BinarySearch(eps, x)
		return balls[i]
	}
	// Each link intersects its two balls through a dense per-worker distance
	// array: negative outside the first ball, and all negative between tasks.
	cands := parallel.MapScratch(len(links),
		func() []float64 { return slices.Repeat([]float64{-1}, g.N()) },
		func(in []float64, i int) []graph.NodeID {
			bu, bv := ballOf(links[i].U), ballOf(links[i].V)
			if len(bv.nodes) < len(bu.nodes) {
				bu, bv = bv, bu
			}
			for j, x := range bu.nodes {
				in[x] = bu.dist[j]
			}
			var out []graph.NodeID
			for j, x := range bv.nodes {
				du, dv := in[x], bv.dist[j]
				if du < 0 {
					continue
				}
				if _, rad := s.windowMeta(x); within(du, rad) && within(dv, rad) && test(x, i) {
					out = append(out, x)
				}
			}
			for _, x := range bu.nodes {
				in[x] = -1
			}
			return out
		})
	aff := slices.Concat(cands...)
	slices.Sort(aff)
	return slices.Compact(aff), scanned
}

// recoveryVicinities returns, sorted, every node whose vicinity window
// changes when the given (deduplicated, sorted, nonexistent) links are
// restored, plus the candidate count scanned. Full windows come from
// windowCandidates on the recovered graph ng, each survivor's pre-event
// window deciding exactly (restoreChanges). Shortfall windows instead
// qualify whenever any restored endpoint sits in their component:
// reconnection admits new members at any distance.
func (s *Snapshot) recoveryVicinities(uniq []graph.WeightedLink, ng *graph.Graph) ([]graph.NodeID, int) {
	links := make([]graph.EdgeKey, len(uniq))
	for i, r := range uniq {
		links[i] = graph.EdgeKey{U: r.U, V: r.V}
	}
	aff, scanned := s.windowCandidates(ng, links, func(x graph.NodeID, i int) bool {
		size, _ := s.windowMeta(x)
		return size >= s.k && s.restoreChanges(x, uniq[i])
	})
	if len(s.short) == 0 {
		return aff, scanned
	}
	labels, _ := s.g.Components()
	epLabels := make(map[int32]bool, 2*len(links))
	for _, l := range links {
		epLabels[labels[l.U]], epLabels[labels[l.V]] = true, true
	}
	for _, v := range s.short {
		if epLabels[labels[v]] {
			aff = append(aff, v)
		}
	}
	slices.Sort(aff)
	return slices.Compact(aff), scanned
}

// sumSlack is how far, relative to its size, a ball's distance may sit
// above the window distance of the same pair. A ball searched from a link
// endpoint and a window searched from its owner add a path's weights from
// opposite ends, and two float sums of m positive terms in different
// orders differ by at most about 2m·2^-53 of their size: 1e-9 covers paths
// of millions of links. Integer weights sum exactly, and on them the slack
// admits no other distance.
const sumSlack = 1e-9

// ballBound returns the search bound of a ball that must reach every node
// whose window distance to its source is at most r: r with the slack,
// nudged past it because RunRadius settles strictly below its bound.
func ballBound(r float64) float64 { return math.Nextafter(r+r*sumSlack, math.Inf(1)) }

// within reports whether a ball distance d may be a window distance of at
// most r.
func within(d, r float64) bool { return d <= r+r*sumSlack }

// restoreChanges reports whether restoring r changes the full window V(x):
// the three cases of "What affected means", read off the pre-event window
// in both directions of the link. A compact base window is read in place:
// two pointed probes, and when one hits, the few fields its cases compare.
// With neither endpoint a member, no route over the link stays within the
// radius.
func (s *Snapshot) restoreChanges(x graph.NodeID, r graph.WeightedLink) bool {
	if win := s.stored(x); win != nil {
		return restoreChanges(win, r)
	}
	return restoreChanges(inPlace{s.cs.pointed(x)}, r)
}

// restoreChanges is Snapshot.restoreChanges' test on the window.
func restoreChanges[W windowFields](win W, r graph.WeightedLink) bool {
	iu, iv := win.Find(r.U), win.Find(r.V)
	return iu >= 0 && changesThrough(win, iu, r.V, iv, r.W) || iv >= 0 && changesThrough(win, iv, r.U, iu, r.W)
}

// changesThrough reports whether a link of weight w from member iu to v
// (member iv, or -1) changes the window: v improves strictly, v's parent
// is stolen by a tie, or v enters ahead of the last-settled member.
func changesThrough[W windowFields](win W, iu int, v graph.NodeID, iv int, w float64) bool {
	du, d := win.Dist(iu), win.Dist(iu)+w
	if iv < 0 {
		return settlesBefore(d, v, win.Radius(), lastSettled(win))
	}
	if dv := win.Dist(iv); d != dv {
		return d < dv
	}
	p := win.Parent(iv) // not the owner: its distance 0 is below du+w
	return settlesBefore(du, win.ID(iu), win.Dist(p), win.ID(p))
}

// lastSettled returns the member a truncated search settles last: the
// highest ID at the window's radius.
func lastSettled[W windowFields](win W) graph.NodeID {
	i := win.Size() - 1
	for win.Dist(i) != win.Radius() {
		i--
	}
	return win.ID(i)
}

// settlesBefore reports whether a node at Dijkstra distance d1 settles
// before one at d2 — the (distance, node ID) pop order every tree in this
// repository is built with.
func settlesBefore(d1 float64, n1 graph.NodeID, d2 float64, n2 graph.NodeID) bool {
	if d1 != d2 {
		return d1 < d2
	}
	return n1 < n2
}

// rowPatch is one parent that moves in a forest row: v's parent becomes p.
type rowPatch struct {
	v graph.NodeID
	p graph.NodeID
}

// fold materializes the chain's logical route state into a fresh
// base-format shard store in the snapshot's own regime — an O(state)
// re-encode with no shortest-path work — and drops the overlay table. The
// folded snapshot reads and serializes identically (CanonicalBytes is
// computed from logical state), keeps the repair stats of the step that
// triggered the fold, and its compact forest rows re-index the current
// graph's adjacency. maxRadius comes down to the folded windows' largest
// radius: repairs only raise it, and a chain whose windows shrank back
// would otherwise search balls sized for its worst past event.
func (s *Snapshot) fold() *Snapshot {
	f := &Snapshot{
		g: s.g, k: s.k,
		landmarks: s.landmarks, lmRow: s.lmRow,
		short:    s.short,
		repaired: true, stats: s.stats,
	}
	f.stats.Folded = true
	if s.cs != nil {
		f.cs = s.foldCompactWindows()
		s.foldCompactForest(f.cs)
	} else {
		f.wins, f.parents = s.foldExactWindows(), s.foldExactForest()
	}
	for v := range graph.NodeID(s.g.N()) {
		_, r := f.windowMeta(v)
		f.maxRadius = max(f.maxRadius, r)
	}
	return f
}

// foldExactWindows packs the chain's logical windows into fresh shared
// columns (shortfall windows keep their reduced size).
func (s *Snapshot) foldExactWindows() []vicinity.Window {
	wins := make([]*vicinity.Window, s.g.N())
	for v := range wins {
		wins[v] = s.Vicinity(graph.NodeID(v))
	}
	return vicinity.Pack(wins)
}

// foldExactForest copies the chain's forest rows into one flat array.
func (s *Snapshot) foldExactForest() []graph.NodeID {
	n := s.g.N()
	parents := make([]graph.NodeID, len(s.landmarks)*n)
	parallel.Run(len(s.landmarks), func(row int) {
		copy(parents[row*n:(row+1)*n], s.forestRow(row))
	})
	return parents
}

// CanonicalBytes serializes the snapshot's logical route state — every
// vicinity window entry and every forest parent, as node IDs and float64
// distance bits — in a storage-independent canonical form. Two snapshots
// agree here iff they hold identical route state, regardless of how it is
// laid out (exact flat arrays, compact bit-packing, a repair overlay
// table, or a folded one); this is the byte-identity the repair- and
// chain-equivalence tests assert against a from-scratch build of the
// current topology.
func (s *Snapshot) CanonicalBytes() []byte {
	n := s.g.N()
	var buf []byte
	put32 := func(x uint32) {
		buf = append(buf, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	put64 := func(x uint64) {
		put32(uint32(x))
		put32(uint32(x >> 32))
	}
	put32(uint32(n))
	put32(uint32(s.k))
	put32(uint32(len(s.landmarks)))
	for _, lm := range s.landmarks {
		put32(uint32(lm))
	}
	for v := 0; v < n; v++ {
		win := s.Vicinity(graph.NodeID(v))
		put32(uint32(win.Size()))
		for i := 0; i < win.Size(); i++ {
			put32(uint32(win.ID(i)))
			put32(uint32(parentID(win, i)))
			put64(math.Float64bits(win.Dist(i)))
		}
	}
	for row := range s.landmarks {
		for v := 0; v < n; v++ {
			put32(uint32(s.parentAt(row, graph.NodeID(v))))
		}
	}
	return buf
}
