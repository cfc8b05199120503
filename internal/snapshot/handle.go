// Epoch-stamped, refcounted snapshot handles — the reclamation primitive
// the serving query plane publishes through. A repair chain rebases: every
// chained snapshot shares the chain base's storage arrays, and a fold
// replaces that base with fresh storage, leaving the old base reachable
// only through whoever still reads it. A Handle makes that lifetime
// explicit: the publisher creates one per published epoch (holding its
// reference), readers pin the epoch with TryRetain around each query, and
// when the last reference drops — publisher superseded the epoch AND every
// in-flight reader left — the handle severs its snapshot pointer and fires
// the reclamation hook, so a folded-away base really becomes collectable
// the moment nobody can read it, and never a moment earlier.
//
// The retain protocol is the classic epoch-reclamation shape: a reader
// loads the published handle and calls TryRetain, which only succeeds
// while the count is still positive. If the publisher retired the epoch in
// the window between load and retain (count hit zero), TryRetain fails and
// the reader re-loads — the publication pointer has necessarily moved on,
// so the loop terminates. A successful TryRetain therefore guarantees the
// snapshot stays valid for the whole read-side critical section, with no
// lock anywhere on the path.
package snapshot

import "sync/atomic"

// Handle is one published epoch's refcounted reference to a (possibly
// chained) snapshot. The zero Handle is invalid; use NewHandle.
type Handle struct {
	epoch  uint64
	refs   atomic.Int64
	snap   atomic.Pointer[Snapshot]
	onZero func()
}

// NewHandle wraps s as epoch `epoch` with an initial reference count of 1
// (the publisher's reference). onZero, if non-nil, runs exactly once, when
// the count first reaches zero — the reclamation hook the serving plane
// counts retired epochs with.
func NewHandle(s *Snapshot, epoch uint64, onZero func()) *Handle {
	h := &Handle{epoch: epoch, onZero: onZero}
	h.snap.Store(s)
	h.refs.Store(1)
	return h
}

// Epoch returns the epoch sequence number the handle was published as.
func (h *Handle) Epoch() uint64 { return h.epoch }

// Snapshot returns the pinned snapshot. Callers must hold a reference
// (NewHandle's initial one, or a successful TryRetain); reading a
// reclaimed handle is a lifetime bug and panics.
func (h *Handle) Snapshot() *Snapshot {
	s := h.snap.Load()
	if s == nil {
		panic("snapshot: Handle.Snapshot on a reclaimed handle")
	}
	return s
}

// TryRetain acquires one reference unless the handle was already
// reclaimed (count at zero), in which case it reports false and the
// caller must re-load the publication pointer. Never blocks.
func (h *Handle) TryRetain() bool {
	for {
		r := h.refs.Load()
		if r <= 0 {
			return false
		}
		if h.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Retain acquires one reference on a handle the caller already knows is
// live (it holds another reference). Retaining a reclaimed handle panics.
func (h *Handle) Retain() {
	//disco:retained Retain's contract is handing the acquired reference to the caller
	if !h.TryRetain() {
		panic("snapshot: Retain on a reclaimed handle")
	}
}

// Release drops one reference. When the count reaches zero the handle
// severs its snapshot pointer (making a folded-away chain base
// collectable) and fires the onZero hook. Releasing below zero panics —
// it means a reader released a reference it never acquired.
func (h *Handle) Release() {
	r := h.refs.Add(-1)
	if r < 0 {
		panic("snapshot: Handle released below zero")
	}
	if r == 0 {
		h.snap.Store(nil)
		if h.onZero != nil {
			h.onZero()
		}
	}
}

// Refs returns the current reference count (diagnostics and tests).
func (h *Handle) Refs() int64 { return h.refs.Load() }
