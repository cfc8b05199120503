package sim

import "testing"

func TestEventOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	steps, q := e.Run(0)
	if steps != 3 || !q {
		t.Fatalf("steps=%d quiesced=%v", steps, q)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("order %v", got)
		}
	}
	if e.now != 3 {
		t.Errorf("Now=%v want 3", e.now)
	}
}

func TestFIFOAtEqualTimes(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { got = append(got, i) })
	}
	e.Run(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events must fire in scheduling order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var got []string
	e.Schedule(1, func() {
		got = append(got, "a")
		e.Schedule(0, func() { got = append(got, "a0") })
		e.Schedule(2, func() { got = append(got, "a2") })
	})
	e.Schedule(2, func() { got = append(got, "b") })
	e.Run(0)
	want := []string{"a", "a0", "b", "a2"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestMaxSteps(t *testing.T) {
	var e Engine
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		e.Schedule(1, reschedule)
	}
	e.Schedule(0, reschedule)
	steps, q := e.Run(100)
	if q {
		t.Fatal("infinite chain should not quiesce")
	}
	if steps != 100 || count != 100 {
		t.Fatalf("steps=%d count=%d", steps, count)
	}
}

// TestHeapOrderRandomized cross-checks the hand-rolled event heap against
// the (at, seq) total order on a large interleaved schedule-while-draining
// workload — the property container/heap used to provide.
func TestHeapOrderRandomized(t *testing.T) {
	var e Engine
	var fired []Time
	// A deterministic LCG stands in for math/rand to keep the test dep-free.
	state := uint64(12345)
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % mod
	}
	var schedule func(depth int)
	schedule = func(depth int) {
		d := Time(next(1000)) / 10
		e.Schedule(d, func() {
			fired = append(fired, e.now)
			if depth > 0 {
				schedule(depth - 1)
				schedule(depth - 2)
			}
		})
	}
	for i := 0; i < 50; i++ {
		schedule(3)
	}
	if _, q := e.Run(0); !q {
		t.Fatal("did not quiesce")
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events fired out of time order at %d: %v then %v", i, fired[i-1], fired[i])
		}
	}
	if len(fired) < 50 {
		t.Fatalf("only %d events fired", len(fired))
	}
}

// BenchmarkEngine measures the scheduler's per-event cost on a cascading
// workload (every event schedules its successor, the shape of a triggered
// path-vector update storm). The typed event heap brings this to zero
// allocations per event once the slice is warm; the old container/heap
// implementation boxed every event on both Push and Pop.
func BenchmarkEngine(b *testing.B) {
	const chains, depth = 64, 256
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Engine
		remaining := make([]int, chains)
		ticks := make([]func(), chains)
		for c := range ticks {
			c := c
			ticks[c] = func() {
				if remaining[c] > 0 {
					remaining[c]--
					e.Schedule(1, ticks[c])
				}
			}
		}
		for c := 0; c < chains; c++ {
			remaining[c] = depth
			e.Schedule(Time(c%7), ticks[c])
		}
		if _, q := e.Run(0); !q {
			b.Fatal("did not quiesce")
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var e Engine
	e.Schedule(-1, func() {})
}

func TestPendingAndSteps(t *testing.T) {
	var e Engine
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if len(e.events) != 2 {
		t.Fatalf("pending %d", len(e.events))
	}
	e.Run(0)
	if len(e.events) != 0 || e.steps != 2 {
		t.Fatalf("pending %d steps %d", len(e.events), e.steps)
	}
}
