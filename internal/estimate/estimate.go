// Package estimate supplies every node's estimate of the network size n.
// The paper's nodes learn n by synopsis diffusion (§4.1); the experiments
// here inject the estimates instead: the exact n, or the exact n with the
// controlled error of the §5 "Error in Estimating Number of Nodes"
// experiment (uniform random error of up to ±40% / ±60% per node).
package estimate

import "math/rand"

// InjectError returns per-node estimates n*(1+u) with u uniform in
// [-frac, +frac] — the paper's robustness experiment ("we inject random
// errors of up to 60% in this estimation", §5).
func InjectError(rng *rand.Rand, n int, frac float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		u := (rng.Float64()*2 - 1) * frac
		out[i] = float64(n) * (1 + u)
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}

// Exact returns per-node estimates all equal to the true n.
func Exact(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n)
	}
	return out
}
