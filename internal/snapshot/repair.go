// Incremental snapshot repair: ApplyFailures turns an immutable snapshot
// plus a set of failed links into a new snapshot of the failed topology by
// recomputing only the affected region, sharing everything else with the
// parent copy-on-write; ApplyRecoveries is its dual, restoring links and
// repairing the same blast radius in reverse. Repair cost then tracks the
// event's blast radius instead of n — the property that makes continuous
// churn affordable at the paper-scale sizes the compact encoding unlocked.
//
// What "affected" means is exact, not heuristic, and rests on facts about
// the deterministic Dijkstra in internal/graph (strict-improvement parent
// updates, ties broken by node ID):
//
//   - Failures: a vicinity window V(x) changes only if some failed link has
//     BOTH endpoints inside the window (a link with one endpoint settled was
//     only ever relaxed toward an unsettled node; with both outside it was
//     never relaxed). A forest row changes only if some failed link is a
//     TREE edge of that row — a removed non-tree link never supplied a final
//     parent, and removing relaxations cannot steal a tie.
//   - Recoveries: a full window V(x) changes only if the new state routes
//     through the restored link, which puts BOTH endpoints within the
//     window's radius of x on the recovered topology — so a maxRadius
//     Dijkstra ball around each endpoint, intersected per link, encloses
//     every candidate. A shortfall window (fewer than k members, i.e. a
//     disconnected region) can regain members at any distance, so every
//     shortfall window in a component containing a restored endpoint is a
//     candidate too. A forest row needs a full recompute only if the link
//     reconnects the tree (one endpoint reachable, one not) or strictly
//     shortens one endpoint's distance; the remaining case — an exact
//     distance tie, ubiquitous on unit-weight topologies — can steal at
//     most the tie node's parent, which is patched in place using the
//     settle-order rule (first-settled candidate wins).
//
// The pipeline is shard-parallel end to end over internal/parallel with
// task-ordered merges — ball searches, window recomputes, per-row
// classification, diff accounting, and both fold encoders all fan out, and
// every merge happens in task index order — so the result is bit-identical
// at any worker count. Where it reads compact shards in bulk it reads each
// once, in a sequential pass: the diff accounting decodes a pre-event
// window or row into its worker's scratch, and a tie patch copies its row
// the same way.
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
	RowsRebuilt   int  // landmark forest rows fully recomputed
	RowsPatched   int  // forest rows fixed by a single-parent tie patch
	RowsTotal     int  // = number of landmarks
	Candidates    int  // nodes scanned by the blast-radius candidate search
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
	// event recomputed; RowsTouched the forest rows recomputed or
	// tie-patched. Shared slices; do not modify.
	VicTouched  []graph.NodeID
	RowsTouched []int
}

// ShardsRebuilt returns the fraction of shards this repair fully
// recomputed — the blast-radius cost measure the repair-equivalence test
// bounds. A zero-shard snapshot (no nodes, no landmarks) reports 0, not
// NaN. Tie-patched rows are not counted: a patch rewrites one parent
// field, not a shard.
func (st *RepairStats) ShardsRebuilt() float64 {
	total := st.VicTotal + st.RowsTotal
	if total == 0 {
		return 0
	}
	return float64(st.VicRebuilt+st.RowsRebuilt) / float64(total)
}

// RepairStats returns the statistics of the repair that produced this
// snapshot, or nil for snapshots built from scratch.
func (s *Snapshot) RepairStats() *RepairStats {
	if !s.repaired {
		return nil
	}
	return &s.stats
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
// failures can affect and sharing every untouched shard with s (which
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

	affVic, scanned := s.affectedVicinities(uniq, s.g.Unit())
	wins := recomputeWindows(fg, affVic, s.k)

	// Row classification: a row is affected iff some failed link is one of
	// its tree edges. Task-ordered merge keeps affRows ascending.
	rowHit := parallel.Map(len(s.landmarks), func(row int) bool {
		for _, f := range uniq {
			if s.parentAt(row, f.U) == f.V || s.parentAt(row, f.V) == f.U {
				return true
			}
		}
		return false
	})
	var affRows []int
	for row, hit := range rowHit {
		if hit {
			affRows = append(affRows, row)
		}
	}

	return s.finishRepair(fg, affVic, wins, affRows, s.recomputeRows(fg, affRows), RepairStats{
		FailedLinks: len(uniq),
		VicRebuilt:  len(affVic),
		VicTotal:    n,
		RowsRebuilt: len(affRows),
		RowsTotal:   len(s.landmarks),
		Candidates:  scanned,
	}), nil
}

// ApplyRecoveries returns a snapshot of this snapshot's topology plus the
// given restored links — the dual of ApplyFailures, repairing the same
// blast radius in reverse. Each restored link must not currently exist
// (restore what failed, with the weight the failed graph no longer
// records); links are deduplicated and a negative weight is an error. On a
// connected result the recovered snapshot is byte-identical (in
// CanonicalBytes form) to a from-scratch build of the recovered topology.
func (s *Snapshot) ApplyRecoveries(restores []graph.WeightedLink) (*Snapshot, error) {
	n := s.g.N()
	seen := make(map[graph.EdgeKey]bool, len(restores))
	uniq := make([]graph.WeightedLink, 0, len(restores))
	for _, r := range restores {
		key := (graph.EdgeKey{U: r.U, V: r.V}).Norm()
		if key.U == key.V || key.U < 0 || int(key.V) >= n {
			return nil, fmt.Errorf("snapshot: invalid link %d-%d", r.U, r.V)
		}
		if r.W < 0 {
			return nil, fmt.Errorf("snapshot: negative weight %v on restored link %d-%d", r.W, r.U, r.V)
		}
		if s.g.EdgeID(key.U, key.V) >= 0 {
			return nil, fmt.Errorf("snapshot: link %d-%d is already alive", key.U, key.V)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
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
	rowIdx, prows, full := s.recoveryRows(uniq, ng)

	return s.finishRepair(ng, affVic, wins, rowIdx, prows, RepairStats{
		RestoredLinks: len(uniq),
		VicRebuilt:    len(affVic),
		VicTotal:      n,
		RowsRebuilt:   full,
		RowsPatched:   len(rowIdx) - full,
		RowsTotal:     len(s.landmarks),
		Candidates:    scanned,
	}), nil
}

// diffWindows returns the symmetric difference between two vicinity
// windows, counting removed members, added members, and members whose
// parent or distance moved — the withdrawals plus announcements a
// triggered protocol would send for this window. Parents compare as node
// IDs: a member keeps its route when its parent does, whatever position
// the parent holds in either window.
func diffWindows(old, new *vicinity.Window) int {
	d, i, j := 0, 0, 0
	for i < old.Size() && j < new.Size() {
		switch {
		case old.ID(i) < new.ID(j):
			d++ // withdrawn
			i++
		case old.ID(i) > new.ID(j):
			d++ // announced
			j++
		default:
			if parentID(old, i) != parentID(new, j) || old.Dist(i) != new.Dist(j) {
				d++
			}
			i++
			j++
		}
	}
	return d + (old.Size() - i) + (new.Size() - j)
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

// recomputeRows rebuilds the given forest rows on graph g — each row's
// landmark tree into a fresh parent array, graph.ParentRows as at build —
// for both repair directions. The result is parallel to rows.
func (s *Snapshot) recomputeRows(g *graph.Graph, rows []int) [][]graph.NodeID {
	lms := make([]graph.NodeID, len(rows))
	prows := make([][]graph.NodeID, len(rows))
	for i, row := range rows {
		lms[i] = s.landmarks[row]
		prows[i] = make([]graph.NodeID, g.N())
	}
	graph.ParentRows(g, lms, prows)
	return prows
}

// finishRepair assembles the repaired snapshot: the base shard store
// shared by reference, the parent's overlay table copied with this event's
// recomputed shards written over it, maxRadius and the shortfall list
// updated, and the chain folded into a fresh store when the table's shard
// count crosses the compaction threshold. The event's shards arrive as
// ascending parallel slices: affVic with wins, rowIdx with prows.
func (s *Snapshot) finishRepair(ng *graph.Graph, affVic []graph.NodeID, wins []*vicinity.Window, rowIdx []int, prows [][]graph.NodeID, stats RepairStats) *Snapshot {
	// Changed-state accounting against the pre-event snapshot, fanned out
	// over the worker pool (order-independent integer sums). Each worker
	// decodes a compact pre-event window or row into its own scratch, one
	// sequential pass a shard.
	n := ng.N()
	vicDiffs := parallel.MapScratch(len(affVic), s.newScratch,
		func(sc *vicinity.Scratch, i int) int {
			return diffWindows(s.vicinityInto(affVic[i], sc), wins[i])
		})
	for _, d := range vicDiffs {
		if d > 0 {
			stats.VicChanged++
			stats.VicEntriesChanged += d
		}
	}
	rowDiffs := parallel.MapScratch(len(rowIdx),
		func() []graph.NodeID { return make([]graph.NodeID, n) },
		func(buf []graph.NodeID, i int) int {
			old, prow := s.forestRowInto(rowIdx[i], buf), prows[i]
			d := 0
			for v, p := range old {
				if p != prow[v] {
					d++
				}
			}
			return d
		})
	for _, d := range rowDiffs {
		stats.RowNodesChanged += d
	}
	stats.VicTouched = affVic
	stats.RowsTouched = rowIdx

	c := &Snapshot{
		g: ng, k: s.k, compact: s.compact,
		store:     s.store,
		landmarks: s.landmarks, lmRow: s.lmRow,
		maxRadius: s.maxRadius,
		repaired:  true, stats: stats,
		ov: deriveOverlay(s.ov, n, len(s.landmarks), affVic, wins, rowIdx, prows),
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

// affectedVicinities returns, sorted, every node whose vicinity window can
// change when the given (deduplicated, existing) links fail, plus how many
// candidate nodes the ball search scanned. A window qualifies iff some
// failed link has both endpoints inside it; candidates are enumerated by a
// bounded Dijkstra ball around each distinct lower endpoint (a superset,
// since u ∈ V(x) forces d(x,u) <= maxRadius), then probed exactly —
// probes run inside the per-ball tasks, and the merge is a sort and dedup
// of the per-ball lists, so the result is worker-count invariant.
//
// With radiusCut, a candidate x farther from u than V(x)'s own radius is
// dropped before its membership probes: u ∈ V(x) forces d(x,u) <=
// radius(x). ApplyFailures cuts on unit-weight graphs only, where the
// ball's distance and the window's are the same integer; on a weighted
// graph the two float sums can differ in the last bit.
func (s *Snapshot) affectedVicinities(uniq []graph.EdgeKey, radiusCut bool) ([]graph.NodeID, int) {
	byU := make(map[graph.NodeID][]graph.NodeID)
	var us []graph.NodeID
	for _, f := range uniq {
		if byU[f.U] == nil {
			us = append(us, f.U)
		}
		byU[f.U] = append(byU[f.U], f.V)
	}
	slices.Sort(us)
	// RunRadius settles strictly below its bound, so nudge past maxRadius
	// to include windows whose farthest member sits exactly on it.
	bound := math.Nextafter(s.maxRadius, math.Inf(1))
	type ballResult struct {
		aff     []graph.NodeID
		scanned int
	}
	balls := parallel.MapScratch(len(us),
		func() *graph.SSSP { return graph.NewSSSP(s.g) },
		func(sp *graph.SSSP, i int) ballResult {
			u := us[i]
			sp.RunRadius(u, bound)
			res := ballResult{scanned: len(sp.Order())}
			for _, x := range sp.Order() {
				if radiusCut {
					if _, rad := s.windowMeta(x); sp.Dist(x) > rad {
						continue
					}
				}
				if !s.VicinityContains(x, u) {
					continue
				}
				for _, v := range byU[u] {
					if s.VicinityContains(x, v) {
						res.aff = append(res.aff, x)
						break
					}
				}
			}
			return res
		})
	var aff []graph.NodeID
	scanned := 0
	for _, b := range balls {
		scanned += b.scanned
		aff = append(aff, b.aff...)
	}
	slices.Sort(aff)
	return slices.Compact(aff), scanned
}

// recoveryVicinities returns, sorted, every node whose vicinity window can
// change when the given (deduplicated, sorted, nonexistent) links are
// restored, plus the candidate count scanned. A full window V(x) changes
// only if the new state routes through a restored link, which places BOTH
// endpoints within V(x)'s own radius of x on the recovered graph ng — so
// a maxRadius Dijkstra ball around each endpoint encloses all candidates,
// and the per-window radius probe prunes the enclosure down to windows the
// link can actually reach (the probe that keeps a recovery's recompute set
// blast-radius-sized instead of ball-sized). Both the ball searches and
// the per-link probe sweeps fan out over the worker pool; the probes read
// per-window size and radius off the store (windowMeta) without decoding,
// and the merge is a sort and dedup of the per-link lists, so the result is
// worker-count invariant. Shortfall windows instead qualify whenever any
// restored endpoint sits in their component: reconnection admits new
// members at any distance.
func (s *Snapshot) recoveryVicinities(uniq []graph.WeightedLink, ng *graph.Graph) ([]graph.NodeID, int) {
	eps := make([]graph.NodeID, 0, 2*len(uniq))
	for _, r := range uniq {
		eps = append(eps, r.U, r.V)
	}
	slices.Sort(eps)
	eps = slices.Compact(eps)
	bound := math.Nextafter(s.maxRadius, math.Inf(1))
	// An endpoint's ball: its nodes in settle order, and their distances.
	type ball struct {
		nodes []graph.NodeID
		dist  []float64
	}
	balls := parallel.MapScratch(len(eps),
		func() *graph.SSSP { return graph.NewSSSP(ng) },
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
	n, k := s.g.N(), s.k
	// Each link intersects its two balls through a dense per-worker distance
	// array: negative outside the first ball, and all negative between tasks.
	cands := parallel.MapScratch(len(uniq),
		func() []float64 { return slices.Repeat([]float64{-1}, n) },
		func(in []float64, i int) []graph.NodeID {
			bu, bv := ballOf(uniq[i].U), ballOf(uniq[i].V)
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
				size, rad := s.windowMeta(x)
				if size < k {
					continue // shortfall windows: component rule below
				}
				if du <= rad && dv <= rad {
					out = append(out, x)
				}
			}
			for _, x := range bu.nodes {
				in[x] = -1
			}
			return out
		})
	aff := slices.Concat(cands...)
	if len(s.short) > 0 {
		labels, _ := s.g.Components()
		epLabels := make(map[int32]bool, len(eps))
		for _, x := range eps {
			epLabels[labels[x]] = true
		}
		for _, v := range s.short {
			if epLabels[labels[v]] {
				aff = append(aff, v)
			}
		}
	}
	slices.Sort(aff)
	return slices.Compact(aff), scanned
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

// rowDist returns v's Dijkstra distance from forest row `row`'s landmark,
// re-accumulated root→leaf along the tree path in exactly the addition
// order the Dijkstra used (d[child] = d[parent] + w), so comparisons
// against it reproduce the original float results bit for bit. v must be
// reachable on the row.
func (s *Snapshot) rowDist(row int, v graph.NodeID) float64 {
	var chain []graph.NodeID
	for u := v; u != graph.None; u = s.parentAt(row, u) {
		chain = append(chain, u)
	}
	d := 0.0
	for i := len(chain) - 1; i > 0; i-- {
		w := s.g.EdgeWeight(chain[i], chain[i-1])
		if w < 0 {
			panic(fmt.Sprintf("snapshot: forest row %d holds dead tree edge %d-%d", row, chain[i], chain[i-1]))
		}
		d += w
	}
	return d
}

// rowPatch is one tie-patch candidate: v's parent may change to p, whose
// Dijkstra distance from the row's landmark is d.
type rowPatch struct {
	v graph.NodeID
	p graph.NodeID
	d float64
}

// rowClass is one forest row's verdict against a recovery's restored
// links: full recompute, tie-patched (prow, the patched copy), or neither.
type rowClass struct {
	isFull bool
	prow   []graph.NodeID
}

// recoveryRows computes the forest-row updates for a recovery: rows the
// restored links reconnect or strictly shorten are fully recomputed on ng;
// rows where a restored link only ties an existing distance get the tie
// node's parent patched to the first-settled candidate (the deterministic
// Dijkstra's choice) without any recomputation. Per-row classification
// and patching fan out over the worker pool (each row's verdict is
// independent) and merge in row order. Returns the touched rows ascending,
// their new parent arrays in parallel, and how many were full recomputes.
func (s *Snapshot) recoveryRows(uniq []graph.WeightedLink, ng *graph.Graph) (rowIdx []int, prows [][]graph.NodeID, full int) {
	classes := parallel.Map(len(s.landmarks), func(row int) rowClass {
		lm := s.landmarks[row]
		var patches []rowPatch
		for _, r := range uniq {
			u, v, w := r.U, r.V, r.W
			ru := u == lm || s.parentAt(row, u) != graph.None
			rv := v == lm || s.parentAt(row, v) != graph.None
			if ru != rv {
				return rowClass{isFull: true} // the link reconnects part of the tree
			}
			if !ru {
				continue // both endpoints cut off: the link can't reach lm
			}
			du, dv := s.rowDist(row, u), s.rowDist(row, v)
			if du+w < dv || dv+w < du {
				return rowClass{isFull: true} // strict improvement: distances shift
			}
			if du+w == dv && v != lm && settlesBefore(du, u, dv, v) {
				patches = append(patches, rowPatch{v: v, p: u, d: du})
			} else if dv+w == du && u != lm && settlesBefore(dv, v, du, u) {
				patches = append(patches, rowPatch{v: u, p: v, d: dv})
			}
		}
		return rowClass{prow: s.patchRow(row, patches)}
	})
	var fullRows, fullAt []int
	for row, cl := range classes {
		if cl.isFull {
			fullRows = append(fullRows, row)
			fullAt = append(fullAt, len(rowIdx))
		} else if cl.prow == nil {
			continue
		}
		rowIdx = append(rowIdx, row)
		prows = append(prows, cl.prow)
	}
	for i, prow := range s.recomputeRows(ng, fullRows) {
		prows[fullAt[i]] = prow
	}
	return rowIdx, prows, len(fullRows)
}

// patchRow applies one row's tie-patch candidates and returns the patched
// copy of the row, or nil when every incumbent parent holds. A candidate
// contests the node's parent so far — the row's own or an earlier
// candidate's, whose d is its rowDist — so the first-settler wins in any order.
func (s *Snapshot) patchRow(row int, ps []rowPatch) []graph.NodeID {
	var prow []graph.NodeID
	for _, pc := range ps {
		p0 := s.parentAt(row, pc.v)
		if prow != nil {
			p0 = prow[pc.v]
		}
		if !settlesBefore(pc.d, pc.p, s.rowDist(row, p0), p0) {
			continue // the incumbent parent settles first: no change
		}
		if prow == nil {
			prow = make([]graph.NodeID, s.g.N())
			copy(prow, s.forestRowInto(row, prow))
		}
		prow[pc.v] = pc.p
	}
	return prow
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
		g: s.g, k: s.k, compact: s.compact,
		landmarks: s.landmarks, lmRow: s.lmRow,
		short:    s.short,
		repaired: true, stats: s.stats,
	}
	f.stats.Folded = true
	if s.compact {
		cs := s.foldCompactWindows()
		s.foldCompactForest(cs)
		f.store = cs
	} else {
		st := s.foldExactWindows()
		s.foldExactForest(st)
		f.store = st
	}
	for v := range graph.NodeID(s.g.N()) {
		_, r := f.store.windowMeta(v)
		f.maxRadius = max(f.maxRadius, r)
	}
	return f
}

// foldExactWindows packs the chain's logical windows into a fresh exact
// store's shared columns (shortfall windows keep their reduced size).
func (s *Snapshot) foldExactWindows() *exactStore {
	n := s.g.N()
	wins := make([]*vicinity.Window, n)
	for v := range wins {
		wins[v] = s.Vicinity(graph.NodeID(v))
	}
	return &exactStore{n: n, wins: vicinity.Pack(wins)}
}

// foldExactForest copies the chain's forest rows into st's one flat array.
func (s *Snapshot) foldExactForest(st *exactStore) {
	n := s.g.N()
	st.parents = make([]graph.NodeID, len(s.landmarks)*n)
	parallel.Run(len(s.landmarks), func(row int) {
		copy(st.parents[row*n:(row+1)*n], s.forestRow(row))
	})
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
