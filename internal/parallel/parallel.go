// Package parallel is the deterministic fan-out engine for the experiment
// harness. Every per-source Dijkstra sweep, per-pair stretch sample and
// per-trial simulation in internal/eval runs through this package, which
// guarantees one property the whole evaluation leans on: results are
// bit-identical regardless of the worker count.
//
// The contract that makes that work:
//
//   - Tasks are indexed 0..n-1 and must write results only to task-indexed
//     storage (Map and MapScratch enforce this by construction). Merging
//     then happens in task order, so neither the schedule nor the worker
//     count can reorder a float reduction or an output row.
//   - Tasks never draw from a shared rand.Rand, whose draw order would
//     depend on the schedule. The existing experiments precompute their
//     draws serially before fanning out (reproducing the historical
//     serial sequences exactly); new randomized experiments should
//     instead derive a private stream per task from (baseSeed,
//     taskIndex) via TaskSeed/TaskRNG.
//   - Per-worker scratch (RunScratch/MapScratch) may carry caches between
//     tasks, but tasks must be pure functions of their inputs: scratch may
//     only affect speed, never values.
//
// Scheduling is dynamic (an atomic task counter), which balances skewed
// task costs — per-source Dijkstra time varies wildly on power-law
// graphs — without affecting results. With one worker (the default on a
// single-core machine) everything runs inline on the calling goroutine,
// so workers=1 is exactly the serial program.
package parallel

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the process-wide worker count used when a call site
// does not override it. 0 means "use runtime.GOMAXPROCS(0)".
var defaultWorkers atomic.Int64

// Workers returns the current default worker count: the value set by
// SetWorkers, or runtime.GOMAXPROCS(0) if unset.
func Workers() int {
	if w := defaultWorkers.Load(); w > 0 {
		return int(w)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers sets the process-wide default worker count. n <= 0 resets to
// the GOMAXPROCS default. cmd/discosim and the bench harness wire their
// -workers flag here.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Run executes fn(task) for every task in 0..n-1 on up to Workers()
// goroutines. fn must confine its writes to task-indexed storage; tasks
// are claimed dynamically so per-task cost skew doesn't idle workers.
func Run(n int, fn func(task int)) {
	RunScratch(n, func() struct{} { return struct{}{} }, func(_ struct{}, task int) { fn(task) })
}

// RunScratch is Run with per-worker scratch: makeScratch is called once per
// worker and the value is passed to every task that worker claims. Use it
// to reuse O(n) allocations (SSSP scratch, protocol forks, count arrays)
// across the tasks of one worker. Scratch must never change what a task
// computes — only how fast.
func RunScratch[S any](n int, makeScratch func() S, fn func(scratch S, task int)) {
	RunGather(n, makeScratch, fn)
}

// RunGather is RunScratch that additionally returns every worker's scratch
// after all tasks complete, in unspecified order. It exists for per-worker
// accumulators (edge-use counters, cluster tallies) whose reduction is
// order-independent; schedule-sensitive reductions (float sums) must use
// Map/MapScratch and reduce in task order instead.
func RunGather[S any](n int, makeScratch func() S, fn func(scratch S, task int)) []S {
	if n <= 0 {
		return nil
	}
	workers := Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := makeScratch()
		for i := 0; i < n; i++ {
			fn(s, i)
		}
		return []S{s}
	}
	scratches := make([]S, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			s := makeScratch()
			scratches[w] = s
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(s, i)
			}
		}(w)
	}
	wg.Wait()
	return scratches
}

// Map runs fn over 0..n-1 and returns the results in task order.
func Map[T any](n int, fn func(task int) T) []T {
	out := make([]T, n)
	Run(n, func(i int) { out[i] = fn(i) })
	return out
}

// MapScratch is Map with per-worker scratch (see RunScratch).
func MapScratch[S, T any](n int, makeScratch func() S, fn func(scratch S, task int) T) []T {
	out := make([]T, n)
	RunScratch(n, makeScratch, func(s S, i int) { out[i] = fn(s, i) })
	return out
}

// TaskSeed derives an independent PRNG seed from (base, task) with a
// splitmix64-style mix, so sibling tasks get uncorrelated streams and the
// same (base, task) always yields the same stream — the per-task seeding
// rule that keeps randomized experiments schedule-independent. Existing
// experiments precompute their draws serially instead (their sequences
// predate the pool); use this for randomness introduced in new ones.
func TaskSeed(base int64, task int) int64 {
	z := uint64(base)*0x9e3779b97f4a7c15 + uint64(task)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// TaskRNG returns a rand.Rand seeded with TaskSeed(base, task).
func TaskRNG(base int64, task int) *rand.Rand {
	return rand.New(rand.NewSource(TaskSeed(base, task)))
}

// SumInto adds each slice of parts element-wise into dst (which defines
// the length) and returns dst. Integer merges are order-independent, so
// per-worker count arrays reduced this way are deterministic under any
// schedule.
func SumInto(dst []int, parts ...[]int) []int {
	for _, p := range parts {
		for i, v := range p {
			dst[i] += v
		}
	}
	return dst
}
