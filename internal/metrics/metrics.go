// Package metrics provides the measurement machinery of the evaluation
// (§5): CDFs over nodes / source-destination pairs / edges, deterministic
// sampling for large topologies ("we sample a fraction of nodes or
// source-destination pairs to compute state, stretch, and congestion"),
// stretch computation, and per-edge congestion counting.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// CDF is an empirical distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (the input slice is copied).
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the number of samples.
func (c *CDF) N() int { return len(c.sorted) }

// Mean returns the sample mean (0 for an empty CDF).
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range c.sorted {
		t += v
	}
	return t / float64(len(c.sorted))
}

// Max returns the largest sample (0 for an empty CDF).
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[len(c.sorted)-1]
}

// Quantile returns the p-quantile for p in [0,1] using the nearest-rank
// method (Quantile(1) == Max).
func (c *CDF) Quantile(p float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(math.Ceil(p*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}

// String summarizes the distribution (mean / median / p95 / max), the four
// numbers the paper's tables report.
func (c *CDF) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p95=%.3f max=%.3f",
		c.N(), c.Mean(), c.Quantile(0.5), c.Quantile(0.95), c.Max())
}

// FormatSeries renders labeled CDFs as an aligned text table of summary
// rows, used by cmd/discosim and the benches to print figure data.
func FormatSeries(title string, labels []string, cdfs []*CDF) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "  %-22s %10s %10s %10s %10s %10s\n", "series", "n", "mean", "p50", "p95", "max")
	for i, l := range labels {
		c := cdfs[i]
		fmt.Fprintf(&b, "  %-22s %10d %10.3f %10.3f %10.3f %10.3f\n",
			l, c.N(), c.Mean(), c.Quantile(0.5), c.Quantile(0.95), c.Max())
	}
	return b.String()
}

// Pair is a sampled source-destination pair.
type Pair struct{ Src, Dst int }

// SamplePairs returns k source-destination pairs with distinct endpoints,
// uniformly at random. A graph of fewer than two nodes has no such pair:
// asking for one panics.
func SamplePairs(rng *rand.Rand, n, k int) []Pair {
	if k > 0 && n < 2 {
		panic(fmt.Sprintf("metrics: %d pairs with distinct endpoints requested from n=%d nodes", k, n))
	}
	out := make([]Pair, 0, k)
	for len(out) < k {
		s := rng.Intn(n)
		d := rng.Intn(n)
		if s == d {
			continue
		}
		out = append(out, Pair{Src: s, Dst: d})
	}
	return out
}

// Stretch returns routeLen/shortest, the paper's one-way stretch definition
// (§2). A zero shortest distance (identical endpoints) yields stretch 1 when
// the route is also zero, else +Inf; routes shorter than shortest (a
// protocol bug) panic.
func Stretch(routeLen, shortest float64) float64 {
	if shortest == 0 {
		if routeLen == 0 {
			return 1
		}
		return math.Inf(1)
	}
	s := routeLen / shortest
	if s < 1-1e-9 {
		panic(fmt.Sprintf("metrics: route (%v) shorter than shortest path (%v)", routeLen, shortest))
	}
	if s < 1 {
		return 1
	}
	return s
}

// Congestion counts, per undirected edge, how many routes traverse it
// (§5.2 Congestion: "we have each node route to a random destination and
// count the number of times each edge is used").
type Congestion struct {
	counts []int
}

// NewCongestion returns a counter for a graph with m edges.
func NewCongestion(m int) *Congestion { return &Congestion{counts: make([]int, m)} }

// AddEdgeUse records one traversal of edge eid.
func (c *Congestion) AddEdgeUse(eid int32) { c.counts[eid]++ }

// CDF returns the distribution of per-edge use counts over all edges.
func (c *Congestion) CDF() *CDF {
	s := make([]float64, len(c.counts))
	for i, v := range c.counts {
		s[i] = float64(v)
	}
	return NewCDF(s)
}

// Merge adds other's per-edge counts into c — the reduction step for
// per-worker counters of a parallel congestion sweep. Integer sums are
// order-independent, so any merge order yields the same totals.
func (c *Congestion) Merge(other *Congestion) {
	if len(other.counts) != len(c.counts) {
		panic(fmt.Sprintf("metrics: merging congestion over %d edges into %d", len(other.counts), len(c.counts)))
	}
	for i, v := range other.counts {
		c.counts[i] += v
	}
}
