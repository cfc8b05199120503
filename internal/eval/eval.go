// Package eval is the experiment harness: one entry point per table and
// figure of the paper's evaluation (§5), each returning a printable result
// that reports the same rows/series the paper does. cmd/discosim and the
// root-level benchmarks are thin wrappers around this package.
//
// Default sizes are scaled down from the paper's (which reach 192,244
// nodes) so the whole suite runs on a laptop; every function takes explicit
// sizes so cmd/discosim -full can run paper scale. Where the paper states
// a number, the result's Format prints it beside the measured one.
package eval

import (
	"fmt"
	"math/rand"
	"sync"

	"disco/internal/core"
	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/s4"
	"disco/internal/snapshot"
	"disco/internal/spr"
	"disco/internal/static"
	"disco/internal/topology"
	"disco/internal/vrr"
)

// TopoKind names the evaluation topologies of §5.1.
type TopoKind string

const (
	// TopoGnm is the G(n,m) random graph with average degree 8.
	TopoGnm TopoKind = "gnm"
	// TopoGeometric is the geometric random graph with Euclidean link
	// latencies and average degree 8.
	TopoGeometric TopoKind = "geometric"
	// TopoASLike stands in for the 30,610-node AS-level Internet map.
	TopoASLike TopoKind = "aslike"
	// TopoRouterLike stands in for the 192,244-node router-level map.
	TopoRouterLike TopoKind = "routerlike"
)

// BuildTopo generates the named topology at size n, seeded.
func BuildTopo(kind TopoKind, n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case TopoGnm:
		return topology.GnmAvgDeg(rng, n, 8)
	case TopoGeometric:
		return topology.Geometric(rng, n, 8)
	case TopoASLike:
		return topology.ASLike(rng, n)
	case TopoRouterLike:
		return topology.RouterLike(rng, n)
	}
	panic(fmt.Sprintf("eval: unknown topology %q", kind))
}

// Config is what the caller chooses about how an experiment runs, passed
// as a value: experiments that build a Protocols bundle or a snapshot are
// methods on it, so two regimes can run side by side in one process. The
// zero Config is the default.
type Config struct {
	// Compact builds route-state snapshots in the compact (bit-packed)
	// encoding — the regime that fits paper-scale -full runs in memory.
	// The encoding is lossless, so every experiment's output is
	// byte-identical in both regimes on every topology; only memory and
	// read cost differ. Exact storage, whose reads are the cheaper, is the
	// default.
	Compact bool
}

// buildSnapshot dispatches to the selected encoding regime. The
// experiment topologies are connected by construction, so a build error
// here is a harness bug; panicking with the diagnosable error (outside
// any worker pool) is the right failure mode for the harness, while
// library callers of snapshot.Build handle the error themselves.
func (c Config) buildSnapshot(g *graph.Graph, k int, landmarks []graph.NodeID) *snapshot.Snapshot {
	build := snapshot.Build
	if c.Compact {
		build = snapshot.BuildCompact
	}
	s, err := build(g, k, landmarks)
	if err != nil {
		panic(fmt.Sprintf("eval: snapshot build failed: %v", err))
	}
	return s
}

// Protocols bundles the protocol instances built over one environment so
// experiments share landmarks, names and caches.
type Protocols struct {
	cfg   Config
	Env   *static.Env
	Disco *core.Disco
	S4    *s4.S4
	SPR   *spr.SPR

	mu   sync.Mutex
	snap *snapshot.Snapshot
	vrrs map[int64]*vrr.VRR
}

// EnsureSnapshot builds (once) the shared immutable snapshot — the flat
// vicinity table plus the landmark shortest-path forest, computed in
// parallel — and installs it into the Disco and S4 data planes, so every
// subsequent Fork() shares it. Call before routing sweeps; state-only
// experiments don't need it.
func (p *Protocols) EnsureSnapshot() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.snap != nil {
		return
	}
	p.snap = p.cfg.buildSnapshot(p.Env.G, p.Disco.ND.K, p.Env.Landmarks)
	p.Disco.ND.UseSnapshot(p.snap)
	p.S4.UseSnapshot(p.snap)
}

// installSnapshot builds and installs a snapshot for a standalone Disco
// instance outside a Protocols bundle (per-strategy environments and the
// estimate-error experiment).
func (c Config) installSnapshot(d *core.Disco) {
	env := d.Env()
	d.ND.UseSnapshot(c.buildSnapshot(env.G, d.ND.K, env.Landmarks))
}

// BuildProtocols constructs the common environment and protocol stack;
// the bundle's snapshot, if an experiment asks for one, is built in c's
// regime.
func (c Config) BuildProtocols(kind TopoKind, n int, seed int64) *Protocols {
	g := BuildTopo(kind, n, seed)
	env := static.NewEnv(g, seed)
	return &Protocols{
		cfg:   c,
		Env:   env,
		Disco: core.NewDisco(env, core.WithSeed(seed)),
		S4:    s4.New(env, 1),
		SPR:   spr.New(env),
	}
}

// VRR builds the VRR baseline over the same environment (1,024-node
// experiments only in the paper). Construction is O(n^2)-ish, so the
// converged instance is memoized per seed: the three Fig. 4/5 panels share
// one build, each forking it for concurrent routing. Construction is
// deterministic, so memoization never changes results.
func (p *Protocols) VRR(seed int64) *vrr.VRR {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.vrrs[seed]; ok {
		return v
	}
	rng := rand.New(rand.NewSource(seed))
	v := vrr.New(p.Env, 4, graph.NodeID(rng.Intn(p.Env.N())))
	// The memoized instance lives for the whole experiment; keep only the
	// sealed flat representation.
	v.Compact()
	if p.vrrs == nil {
		p.vrrs = make(map[int64]*vrr.VRR)
	}
	p.vrrs[seed] = v
	return v
}

// intsToCDF converts entry counts to a CDF.
func intsToCDF(xs []int) *metrics.CDF {
	fs := make([]float64, len(xs))
	for i, v := range xs {
		fs[i] = float64(v)
	}
	return metrics.NewCDF(fs)
}
