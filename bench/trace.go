package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Thread ids of the Chrome trace: one row per goroutine role.
const (
	tidMain    = 0 // setup, the publisher / event loop, verification
	tidQuerier = 1
	tidWorker  = 2 // + worker index on fig-stretch
)

// span is one timed call into a layer, recorded from the bench's own
// files: the layer function's name, when it ran, the span that caused it
// and the event, query or pair it belongs to.
type span struct {
	name       string
	tid        int
	start, end time.Duration // since the tracer's origin
	parent     int           // index of the causing span, -1 at a root
	event      int           // event / query / pair id, -1 when none
}

// tracer keeps spans in memory and writes them out when the run ends. A
// tracer that is off records nothing: begin returns -1 and end ignores it,
// so the untraced run pays one branch per call site.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(name string, tid, parent, event int) int {
	if !t.on {
		return -1
	}
	return t.beginAt(name, tid, parent, event, time.Now())
}

// beginAt is begin for a span that started at an instant already read.
func (t *tracer) beginAt(name string, tid, parent, event int, at time.Time) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, tid: tid, start: at.Sub(t.t0), end: -1, parent: parent, event: event})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns fn's wall time, traced or not.
func (t *tracer) timed(name string, tid, parent, event int, fn func()) time.Duration {
	id := t.begin(name, tid, parent, event)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// selfTimes returns each span's duration minus the part its direct
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summary aggregates the spans by name, ordered by self time.
func (t *tracer) summary() []layerRow {
	self := t.selfTimes()
	byName := map[string]*layerRow{}
	var rows []*layerRow
	for i, s := range t.spans {
		r := byName[s.name]
		if r == nil {
			r = &layerRow{Name: s.name}
			byName[s.name] = r
			rows = append(rows, r)
		}
		r.Count++
		r.TotalMs += float64(s.end-s.start) / 1e6
		r.SelfMs += float64(self[i]) / 1e6
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].SelfMs > rows[j].SelfMs })
	out := make([]layerRow, len(rows))
	for i, r := range rows {
		out[i] = *r
	}
	return out
}

// write stores the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := t.selfTimes()
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		name, _ := json.Marshal(s.name) // a string always marshals
		fmt.Fprintf(w, "\n"+`{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"event":%d,"self_us":%.3f}}`,
			name, s.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.event, float64(self[i])/1e3)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
