// mergeorder: pool closures may write only task-indexed storage,
// per-worker scratch, and their own locals.

package eval

import "disco/internal/parallel"

// --- flagged ---

func appendShared(n int) []int {
	var results []int
	parallel.Run(n, func(task int) {
		results = append(results, task*task) // want `write to captured variable from a parallel task closure`
	})
	return results
}

func sharedScalar(n int, xs []float64) float64 {
	total := 0.0
	parallel.Run(n, func(task int) {
		total += xs[task] // want `write to captured variable from a parallel task closure`
	})
	return total
}

func sharedMap(n int) map[int]int {
	seen := make(map[int]int)
	parallel.Run(n, func(task int) {
		seen[task] = task // want `write to a map captured by a parallel task closure`
	})
	return seen
}

func nonTaskIndex(n int, out []int) {
	parallel.Run(n, func(task int) {
		for k := 0; k < 4; k++ {
			out[k] = k // want `captured slice is written at an index not derived from the task parameter`
		}
	})
}

func sharedCounterInc(n int) int {
	hits := 0
	parallel.Run(n, func(task int) {
		hits++ // want `write to captured variable from a parallel task closure`
	})
	return hits
}

// --- allowed ---

func taskIndexed(n int, xs []float64) []float64 {
	out := make([]float64, n)
	parallel.Run(n, func(task int) {
		out[task] = xs[task] * 2
	})
	return out
}

func taskDerivedIndex(n int, out []int) {
	parallel.Run(n, func(task int) {
		out[2*task] = task
		out[2*task+1] = -task
	})
}

func structuredRow(n int, rows []struct{ Sum int }) {
	parallel.Run(n, func(task int) {
		rows[task].Sum = task
	})
}

func mapResult(n int) []int {
	return parallel.Map(n, func(task int) int {
		local := task * 3 // locals are free
		return local
	})
}

func explicitInstantiation(n int) []int {
	return parallel.Map[int](n, func(task int) int { return task })
}

func scratchWrites(n int) {
	parallel.RunScratch(n, func() []int { return make([]int, 8) },
		func(scratch []int, task int) {
			scratch[0] += task // per-worker scratch: free by construction
		})
}

func gather(n int) []*[4]int {
	return parallel.RunGather(n, func() *[4]int { return new([4]int) },
		func(scratch *[4]int, task int) {
			scratch[task%4]++
		})
}

// --- waived ---

func waivedTally(n int) int {
	total := 0
	parallel.Run(n, func(task int) {
		//disco:orderinvariant integer tally; addition commutes and the pool joins before the read
		total += task
	})
	return total
}
