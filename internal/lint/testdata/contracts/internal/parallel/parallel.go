// Package parallel is a sequential stand-in for the worker pool.
package parallel

// Run calls fn once per task.
func Run(n int, fn func(task int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
