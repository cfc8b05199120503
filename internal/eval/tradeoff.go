package eval

import (
	"fmt"
	"math/rand"

	"disco/internal/metrics"
	"disco/internal/parallel"
	"disco/internal/tzk"
)

// TradeoffPoint is one k's measurement in the state/stretch sweep.
type TradeoffPoint struct {
	K            int
	MeanState    float64
	MaxState     int
	MeanStretch  float64
	MaxStretch   float64
	StretchBound int // the theoretical 2k-1
}

// TradeoffResult answers §6's open question empirically: the
// Thorup–Zwick k-level family translated to the simulator, sweeping the
// state/stretch tradeoff that Disco instantiates at k=2.
type TradeoffResult struct {
	N      int
	Kind   TopoKind
	Points []TradeoffPoint
}

// Format renders the staircase.
func (r *TradeoffResult) Format() string {
	out := fmt.Sprintf("State/stretch tradeoff (TZ k-level family, §6 future work), %s n=%d\n", r.Kind, r.N)
	out += fmt.Sprintf("  %3s %12s %10s %13s %12s %8s\n", "k", "mean-state", "max-state", "mean-stretch", "max-stretch", "bound")
	for _, p := range r.Points {
		out += fmt.Sprintf("  %3d %12.1f %10d %13.3f %12.3f %8d\n",
			p.K, p.MeanState, p.MaxState, p.MeanStretch, p.MaxStretch, p.StretchBound)
	}
	return out
}

// tradeoffSeedBase offsets the per-k TaskSeed streams away from the pair
// sample's (seed+8000) stream.
const tradeoffSeedBase = 8100

// TradeoffSweep builds the TZ scheme for each k and measures mean/max
// state and stretch over sampled pairs. The pair sample is drawn serially
// up front; each k's level sampling uses a private parallel.TaskSeed
// stream, so the per-pair stretch sweep inside each k runs through the
// worker pool on scheme forks with bit-identical output at any worker
// count. The outer k loop stays serial: nesting two pool fan-outs would
// multiply concurrency past the -workers bound.
func TradeoffSweep(kind TopoKind, n int, ks []int, seed int64, pairs int) *TradeoffResult {
	g := BuildTopo(kind, n, seed)
	g.Finalize()
	ps := metrics.SamplePairs(rand.New(rand.NewSource(seed+8000)), n, pairs)
	res := &TradeoffResult{N: n, Kind: kind}
	for ki := range ks {
		k := ks[ki]
		s := tzk.New(g, k, parallel.TaskRNG(seed+tradeoffSeedBase, ki))
		pt := TradeoffPoint{K: k, StretchBound: 2*k - 1}
		entries := s.StateEntries()
		tot := 0
		for _, e := range entries {
			tot += e
			if e > pt.MaxState {
				pt.MaxState = e
			}
		}
		pt.MeanState = float64(tot) / float64(n)
		sw := sweepPairs(ps, s.Fork, (*tzk.Scheme).TrueDist, routed(g, (*tzk.Scheme).Route))
		pt.MeanStretch = sw.mean(0)
		for _, st := range sw.column(0) {
			pt.MaxStretch = max(pt.MaxStretch, st)
		}
		res.Points = append(res.Points, pt)
	}
	return res
}
