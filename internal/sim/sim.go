// Package sim is the discrete event engine behind the paper's "custom
// discrete event simulator" (§5.1): a deterministic time-ordered event
// queue over which the distributed protocols (path vector in
// internal/pathvector, overlay dissemination) run to measure control
// messaging until convergence (Fig. 8). Events at equal times fire in
// scheduling order (FIFO), so runs are exactly reproducible.
package sim

// Time is simulated time; link latencies are added as delays.
type Time = float64

type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventHeap is a hand-rolled binary min-heap over a typed event slice.
// container/heap's interface methods would box every event through
// interface{} on each Push and Pop — one allocation per scheduled event,
// which dominates the engine's cost on million-event convergence runs
// (see BenchmarkEngine). The (at, seq) key is a total order, so any
// correct heap pops events in exactly the same sequence.
type eventHeap []event

func (h eventHeap) before(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(it event) {
	*h = append(*h, it)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.before(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the fn reference for the GC
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && q.before(l, s) {
			s = l
		}
		if r < n && q.before(r, s) {
			s = r
		}
		if s == i {
			break
		}
		q[i], q[s] = q[s], q[i]
		i = s
	}
	return top
}

// Engine is a deterministic discrete event scheduler. The zero value is
// ready to use.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	steps  uint64
}

// Schedule enqueues fn to run delay time units from now (delay >= 0).
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e.seq++
	e.events.push(event{at: e.now + delay, seq: e.seq, fn: fn})
}

// Run processes events until the queue drains (protocol quiescence — the
// convergence criterion for triggered-update protocols) or maxSteps events
// have fired (0 = no limit). It returns the number of events processed and
// whether the queue drained.
func (e *Engine) Run(maxSteps uint64) (steps uint64, quiesced bool) {
	var done uint64
	for len(e.events) > 0 {
		if maxSteps > 0 && done >= maxSteps {
			return done, false
		}
		it := e.events.pop()
		e.now = it.at
		e.steps++
		done++
		it.fn()
	}
	return done, true
}
