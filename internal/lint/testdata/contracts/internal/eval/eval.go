// Package eval is a deterministic package: eval.go plants one violation
// of each contract, and each other file exercises one check in depth.
package eval

import (
	"time"

	"disco/internal/parallel"
)

// sum ranges over a map.
func sum(m map[int]int) int {
	s := 0
	for _, v := range m { // want `^range over map in deterministic package disco/internal/eval: iteration order is random; range over a slice, or over slices.Sorted\(maps.Keys\(m\)\) \(maporder\)$`
		s += v
	}
	return s
}

// stamp reads the wall clock with no //disco:measured waiver.
func stamp() int64 {
	return time.Now().UnixNano() // want `^time.Now in deterministic package disco/internal/eval; wall clock is only legal on measurement paths annotated //disco:measured <reason> \(seedrand\)$`
}

// gatherTasks appends to shared storage from a pool closure.
func gatherTasks(n int) []int {
	var out []int
	parallel.Run(n, func(task int) {
		out = append(out, task) // want `^write to captured variable from a parallel task closure is ordered by the worker schedule; write task-indexed storage \(out\[task\] = ...\) and merge in task order, or waive with //disco:orderinvariant <reason> \(mergeorder\)$`
	})
	return out
}

// count once read the clock; its waiver stayed behind.
func count(xs []int) int {
	//disco:measured the timing this excused is gone // want `^//disco:measured directive suppresses no diagnostic; delete it \(directive\)$`
	return len(xs)
}

// sorted carries a directive no analyzer knows.
func sorted(xs []int) []int {
	//disco:sorted callers pass sorted input // want `^unknown //disco: directive "sorted" \(known: fixture, measured, orderinvariant\) \(directive\)$`
	return xs
}
