// Package parallel is a sequential stand-in for the worker pool: the
// real entry points' names and closure signatures.
package parallel

// Run calls fn once per task.
func Run(n int, fn func(task int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// RunScratch calls fn once per task with one scratch value.
func RunScratch[S any](n int, makeScratch func() S, fn func(scratch S, task int)) {
	s := makeScratch()
	for i := 0; i < n; i++ {
		fn(s, i)
	}
}

// RunGather calls fn once per task and returns the scratch values.
func RunGather[S any](n int, makeScratch func() S, fn func(scratch S, task int)) []S {
	out := make([]S, n)
	for i := 0; i < n; i++ {
		out[i] = makeScratch()
		fn(out[i], i)
	}
	return out
}

// Map returns fn of every task, in task order.
func Map[T any](n int, fn func(task int) T) []T {
	out := make([]T, n)
	for i := 0; i < n; i++ {
		out[i] = fn(i)
	}
	return out
}
