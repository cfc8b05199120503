// Package eval plants one violation of each contract in a deterministic
// package.
package eval

import (
	"time"

	"disco/internal/parallel"
)

// Sum ranges over a map.
func Sum(m map[int]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

// Stamp reads the wall clock with no //disco:measured waiver.
func Stamp() int64 {
	return time.Now().UnixNano()
}

// Gather appends to shared storage from a pool closure.
func Gather(n int) []int {
	var out []int
	parallel.Run(n, func(task int) {
		out = append(out, task)
	})
	return out
}

// Count once read the clock; its waiver stayed behind.
func Count(xs []int) int {
	//disco:measured the timing this excused is gone
	return len(xs)
}

// Sorted carries a directive no analyzer knows.
func Sorted(xs []int) []int {
	//disco:sorted callers pass sorted input
	return xs
}
