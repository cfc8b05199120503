package dynamics

import (
	"fmt"
	"sort"

	"disco/internal/graph"
	"disco/internal/snapshot"
)

// Timeline drives one converged environment's route state through a
// deterministic sequence of interleaved link failures and recoveries. Each
// event advances the snapshot chain copy-on-write (snapshot.ApplyFailures
// / ApplyRecoveries), so per-event cost is the event's blast radius, not a
// rebuild; the chain's copy-on-write overlay tables plus fold compaction
// keep a long timeline's memory bounded by the base shard store plus a
// capped overlay. The base snapshot and
// graph are never mutated — link weights for recoveries come from the
// base topology, which is what defines "the link comes back".
type Timeline struct {
	base  *snapshot.Snapshot
	baseG *graph.Graph
	cur   *snapshot.Snapshot
	down  []graph.EdgeKey // currently failed base links, sorted
}

// NewTimeline starts a timeline at a converged snapshot (built from
// scratch, with every base link up).
func NewTimeline(base *snapshot.Snapshot) *Timeline {
	return &Timeline{base: base, baseG: base.Graph(), cur: base}
}

// Snapshot returns the current chained snapshot — the post-event data
// plane experiments route on.
func (tl *Timeline) Snapshot() *snapshot.Snapshot { return tl.cur }

// Down returns the currently failed links, ascending. The slice is a
// defensive copy: callers may sort, append to or otherwise mutate it (the
// common Recover(tl.Down()) idiom edits the down list mid-iteration)
// without desynchronizing the timeline's bookkeeping.
func (tl *Timeline) Down() []graph.EdgeKey {
	return append([]graph.EdgeKey(nil), tl.down...)
}

// DownCount returns the number of currently failed links without copying
// the down list.
func (tl *Timeline) DownCount() int { return len(tl.down) }

// IsDown reports whether the link is currently failed.
func (tl *Timeline) IsDown(key graph.EdgeKey) bool {
	_, ok := tl.downIndex(key.Norm())
	return ok
}

// downIndex returns the position of key in the sorted down list and
// whether it is present.
func (tl *Timeline) downIndex(key graph.EdgeKey) (int, bool) {
	i := sort.Search(len(tl.down), func(i int) bool {
		return tl.down[i].U > key.U || (tl.down[i].U == key.U && tl.down[i].V >= key.V)
	})
	return i, i < len(tl.down) && tl.down[i] == key
}

// normKeys returns the normalized copy of links, so the bookkeeping below
// never aliases a caller-owned slice.
func normKeys(links []graph.EdgeKey) []graph.EdgeKey {
	keys := make([]graph.EdgeKey, len(links))
	for i, l := range links {
		keys[i] = l.Norm()
	}
	return keys
}

// Fail advances the timeline by a failure event: the given base links (all
// currently up) go down. Returns the repair's blast-radius stats.
func (tl *Timeline) Fail(links []graph.EdgeKey) (*snapshot.RepairStats, error) {
	keys := normKeys(links)
	for _, key := range keys {
		if tl.baseG.EdgeID(key.U, key.V) < 0 {
			return nil, fmt.Errorf("dynamics: link %d-%d is not in the base topology", key.U, key.V)
		}
		if _, ok := tl.downIndex(key); ok {
			return nil, fmt.Errorf("dynamics: link %d-%d is already down", key.U, key.V)
		}
	}
	next, err := tl.cur.ApplyFailures(keys)
	if err != nil {
		return nil, err
	}
	tl.cur = next
	for _, key := range keys {
		if i, ok := tl.downIndex(key); !ok {
			tl.down = append(tl.down, graph.EdgeKey{})
			copy(tl.down[i+1:], tl.down[i:])
			tl.down[i] = key
		}
	}
	return next.RepairStats(), nil
}

// Recover advances the timeline by a recovery event: the given links (all
// currently down) come back with their base-topology weights. Passing
// Down() itself recovers everything.
func (tl *Timeline) Recover(links []graph.EdgeKey) (*snapshot.RepairStats, error) {
	keys := normKeys(links)
	restores := make([]graph.WeightedLink, 0, len(keys))
	for _, key := range keys {
		if _, ok := tl.downIndex(key); !ok {
			return nil, fmt.Errorf("dynamics: link %d-%d is not down", key.U, key.V)
		}
		restores = append(restores, graph.WeightedLink{
			U: key.U, V: key.V, W: tl.baseG.EdgeWeight(key.U, key.V),
		})
	}
	next, err := tl.cur.ApplyRecoveries(restores)
	if err != nil {
		return nil, err
	}
	tl.cur = next
	for _, key := range keys {
		if i, ok := tl.downIndex(key); ok {
			tl.down = append(tl.down[:i], tl.down[i+1:]...)
		}
	}
	return next.RepairStats(), nil
}
