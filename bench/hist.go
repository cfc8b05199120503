package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// hist is a single-writer log-scale latency histogram: 64 power-of-two
// rows of 64 sub-buckets (about 1.6% resolution) at constant memory, so
// timing every query of a 20 s window keeps no per-sample state.
// Quantiles interpolate by rank inside the hit bucket, so two runs never
// report the same bucket midpoint.
type hist struct {
	counts [64 * 64]uint64
	n      uint64
	sum    uint64
}

func bucketOf(ns uint64) int {
	b := bits.Len64(ns) - 1
	if b >= 6 {
		return b*64 + int((ns>>(b-6))&63)
	}
	return b*64 + int((ns<<(6-b))&63)
}

// bucketLow returns the smallest value that lands in bucket i.
func bucketLow(i int) float64 {
	return math.Ldexp(1+float64(i%64)/64, i/64)
}

func (h *hist) add(d time.Duration) {
	ns := uint64(d)
	if d < 1 {
		ns = 1
	}
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += ns
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds, 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := bucketLow(i), bucketLow(i+1)
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return bucketLow(len(h.counts))
}

// meanNs returns the mean sample in nanoseconds, 0 when empty.
func (h *hist) meanNs() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantileOf returns the q-quantile of a small exact sample (linear
// interpolation between order statistics), 0 when empty. xs is sorted in
// place.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
}
