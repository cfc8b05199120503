// Package other lies under internal/lint, the one part of the module
// outside the deterministic set: maporder and seedrand stay silent here
// no matter what the code does.
package other

import (
	"math/rand"
	"time"
)

func anythingGoes(m map[int]int) ([]int, int, time.Time) {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out, rand.Intn(7), time.Now()
}
