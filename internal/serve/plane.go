// Package serve is the lock-free query plane over the snapshot chain: the
// long-running serving mode routes queries concurrently WITH the repair
// loop that drives a dynamics.Timeline through fail/recover events,
// instead of the batch build→route→print shape of every experiment before
// it.
//
// The design is an atomically published immutable epoch, reclaimed by the
// garbage collector:
//
//   - The publisher (the repair loop) owns the timeline exclusively. After
//     each event it builds an Epoch — a sequence number, the post-event
//     snapshot and the ForkFunc its routing forks are made with — and
//     swaps it into the plane's atomic current-epoch pointer. Nothing
//     frees the superseded epoch: a query that loaded it keeps it
//     reachable, so it and the chain state its forks read become
//     collectable once its last in-flight reader returns, and never under
//     one.
//   - Query goroutines never lock: they load the current epoch, route on
//     a pooled protocol fork of it, and report the epoch they answered on.
//     A query's only shared writes are the plane's query counters.
//   - The plane keeps one sync.Pool of query contexts, each holding a fork
//     and the epoch it was forked for. A query costs one pool Get/Put, and
//     a fork construction only when its context last served another epoch:
//     the context then drops that fork, so forks never migrate between
//     epochs (a fork reads only its own epoch's snapshot) and the pool
//     pins no superseded epoch past the next query. A pool per epoch
//     would: the runtime keeps a used pool for two collections, and when
//     queries allocate nothing the collections come only at the
//     publisher's pace, so every epoch of the last two cycles would stay
//     live and the heap would grow through a storm.
//
// Why results stay deterministic per epoch: a routing fork is a pure
// function of (snapshot, s, t) — snapshots are immutable, forks own all
// their scratch, and every tie-break in the underlying Dijkstra is by node
// ID. Concurrency therefore only chooses WHICH published epoch answers a
// query (the staleness the metrics report), never what any given epoch
// answers — which is what the race suite's "correct for some published
// epoch" linearizable-staleness check asserts, and why the serve-storm
// experiment's per-epoch event log is byte-identical across runs while
// qps and latency are measured quantities.
package serve

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"disco/internal/dynamics"
	"disco/internal/graph"
	"disco/internal/snapshot"
)

// ErrClosed is returned by Publish/PublishWith after Close: a closed
// plane accepts no new epochs (and answers no further queries).
var ErrClosed = errors.New("serve: plane is closed")

// ForkFunc builds a fresh query-side routing view over one published
// snapshot. It must return a view that is safe for exclusive use by one
// goroutine at a time (the plane pools and reuses views, never shares one
// concurrently). Every query appends its route into its pooled context's
// buffer, so a view that allocates nothing warm serves Probe
// allocation-free.
type ForkFunc func(snap *snapshot.Snapshot) dynamics.Router

// slot is one pooled query context: the epoch its routing view was forked
// for, the view, and the reusable route buffer every query appends into.
type slot struct {
	e   *Epoch
	r   dynamics.Router
	buf []graph.NodeID
}

// Epoch is one published epoch: its sequence number, its snapshot and the
// ForkFunc its routing views are forked with. Immutable.
type Epoch struct {
	seq  uint64
	snap *snapshot.Snapshot
	fork ForkFunc
}

// Plane is the serving query plane: an atomic published-epoch pointer
// queries read lock-free while a background repair loop publishes
// post-event snapshots. Create with NewPlane; Publish from ONE publisher
// goroutine; Route from any number of query goroutines.
type Plane struct {
	fork   ForkFunc
	cur    atomic.Pointer[Epoch]
	slots  sync.Pool // of *slot
	closed atomic.Bool

	published atomic.Uint64 // epochs ever published (incl. the base)
	retired   atomic.Uint64 // epochs superseded by a later Publish or by Close
	queries   atomic.Uint64
	delivered atomic.Uint64
	stale     atomic.Uint64
}

// NewPlane publishes base as epoch 0 and returns the plane.
func NewPlane(base *snapshot.Snapshot, fork ForkFunc) *Plane {
	p := &Plane{fork: fork}
	p.Publish(base) // cannot fail: the plane is not closed yet
	return p
}

// Publish atomically installs snap as the new current epoch and returns
// its sequence number, forking query views with the plane's ForkFunc. The
// superseded epoch is collectable once the last in-flight query on it
// completes.
// Single-publisher: callers must serialize Publish (the repair loop owns
// the timeline anyway). Returns ErrClosed after Close.
func (p *Plane) Publish(snap *snapshot.Snapshot) (uint64, error) {
	return p.PublishWith(snap, p.fork)
}

// PublishWith is Publish with a per-epoch ForkFunc — the hook that binds
// each epoch to the forwarding tables derived for exactly that snapshot,
// instead of a plane-lifetime closure over mutable state. Apart from
// Publish and this package's tests, only bench/ calls it (serve-tables).
func (p *Plane) PublishWith(snap *snapshot.Snapshot, fork ForkFunc) (uint64, error) {
	if p.closed.Load() {
		return 0, ErrClosed
	}
	seq := p.published.Add(1) - 1
	if p.cur.Swap(&Epoch{seq: seq, snap: snap, fork: fork}) != nil {
		p.retired.Add(1)
	}
	return seq, nil
}

// Close retires the plane: the current epoch is unpublished (so Retired
// reaches Published) and subsequent Publish calls fail with ErrClosed;
// queries racing with Close return the zero Result (OK=false) without
// touching the counters. Idempotent. Call when the serving loop is done —
// without it, a plane that stays referenced keeps its final epoch, and
// the snapshot chain state behind it, reachable.
func (p *Plane) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	if p.cur.Swap(nil) != nil {
		p.retired.Add(1)
	}
}

// Result is one answered query: the route (nil when the destination is
// unreachable on the answering epoch), the epoch that answered, and
// whether a newer epoch had already been published by completion time —
// the per-query staleness bit the metrics aggregate.
type Result struct {
	Route []graph.NodeID
	OK    bool
	Epoch uint64
	Stale bool
}

// Route answers one route query lock-free on the current epoch: first
// packets resolve the destination's name (later=false), later packets
// carry the address from the handshake (later=true). The route is a fresh
// copy the caller owns. Safe for any number of concurrent callers.
func (p *Plane) Route(s, t graph.NodeID, later bool) Result {
	return p.query(s, t, later, true)
}

// Probe is Route without the route: it answers deliverability on the
// current epoch and drops the path — the closed-loop load generator's
// entry point. Over a view that allocates nothing warm, the whole query
// allocates nothing.
func (p *Plane) Probe(s, t graph.NodeID, later bool) Result {
	return p.query(s, t, later, false)
}

// query is the plane's one query path: it routes on a pooled context
// forked for the current epoch, appending into the context's buffer, and
// settles staleness and the counters. keep copies the route out.
func (p *Plane) query(s, t graph.NodeID, later, keep bool) Result {
	e := p.cur.Load()
	if e == nil {
		return Result{}
	}
	sl := p.slot(e)
	var ok bool
	sl.buf, ok = sl.r.AppendRoute(sl.buf[:0], s, t, later)
	var route []graph.NodeID
	if keep && ok {
		route = slices.Clone(sl.buf)
	}
	p.slots.Put(sl)
	stale := p.cur.Load() != e
	p.queries.Add(1)
	if ok {
		p.delivered.Add(1)
	}
	if stale {
		p.stale.Add(1)
	}
	return Result{Route: route, OK: ok, Epoch: e.seq, Stale: stale}
}

// slot takes a query context from the plane's pool with its routing view
// forked for e. A context last used on another epoch drops that epoch's
// view first.
func (p *Plane) slot(e *Epoch) *slot {
	sl, _ := p.slots.Get().(*slot)
	if sl == nil {
		sl = &slot{}
	}
	if sl.e != e {
		sl.e, sl.r = e, e.fork(e.snap)
	}
	return sl
}

// Metrics is a consistent-enough point-in-time counter snapshot (each
// counter is individually atomic; the set is not read under one lock —
// fine for reporting, not for invariant proofs mid-storm).
type Metrics struct {
	Queries   uint64 // queries answered
	Delivered uint64 // queries whose destination was reachable on their epoch
	Stale     uint64 // queries whose epoch was superseded by completion time
	Published uint64 // epochs ever published (incl. the base)
	Retired   uint64 // epochs superseded by a later Publish or by Close
}

// Metrics reads the plane's counters.
func (p *Plane) Metrics() Metrics {
	return Metrics{
		Queries:   p.queries.Load(),
		Delivered: p.delivered.Load(),
		Stale:     p.stale.Load(),
		Published: p.published.Load(),
		Retired:   p.retired.Load(),
	}
}
