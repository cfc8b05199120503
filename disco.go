// Package disco is a from-scratch implementation of Disco — Distributed
// Compact Routing — from "Scalable Routing on Flat Names" (Singla, Godfrey,
// Fall, Iannaccone, Ratnasamy; ACM CoNEXT 2010): the first dynamic
// distributed routing protocol that guarantees, on any topology,
//
//   - O~(sqrt(n)) routing-table entries per node,
//   - worst-case stretch 7 on a flow's first packet and 3 afterwards,
//   - routing on arbitrary flat (location-independent) names.
//
// The package exposes a small facade over the full implementation in
// internal/: build a network from links and flat names, then route packets
// by destination name and inspect state, addresses and stretch. The
// baselines the paper compares against (S4, VRR, shortest-path routing),
// the event-driven control plane, and the harness reproducing every figure
// and table of the paper's evaluation live in internal/ and are driven by
// cmd/discosim.
//
// Quick start:
//
//	b := disco.NewBuilder(4)
//	b.SetName(0, "alice")
//	b.SetName(1, "bob")
//	... b.AddLink(0, 1, 1.0) ...
//	nw, err := b.Build(disco.Config{})
//	route, err := nw.RouteFirst("alice", "bob")
package disco

import (
	"fmt"

	"disco/internal/core"
	"disco/internal/estimate"
	"disco/internal/graph"
	"disco/internal/metrics"
	"disco/internal/names"
	"disco/internal/snapshot"
	"disco/internal/static"
)

// Shortcut selects the route-shortening heuristic for a flow's first
// packet (§4.2 of the paper; Fig. 6 compares them).
type Shortcut = core.Shortcut

// Shortcut heuristics, from none to the most aggressive. NoPathKnowledge
// is the paper's default.
const (
	ShortcutNone            = core.ShortcutNone
	ShortcutToDestination   = core.ShortcutToDestination
	ShortcutShorterPath     = core.ShortcutShorterPath
	ShortcutNoPathKnowledge = core.ShortcutNoPathKnowledge
	ShortcutUpDownStream    = core.ShortcutUpDownStream
	ShortcutPathKnowledge   = core.ShortcutPathKnowledge
)

// Config tunes a Network. The zero value gives the paper's defaults.
type Config struct {
	// Seed drives landmark selection, overlay fingers and name hashing
	// side channels. Networks with equal inputs and seeds are identical.
	Seed int64
	// Fingers is the number of outgoing overlay fingers per node
	// (default 1; the paper also evaluates 3).
	Fingers int
	// VicinitySize overrides |V(v)| (default ceil(sqrt(n log2 n))).
	VicinitySize int
	// ResolveHashFns is the number of hash functions in the landmark
	// resolution database (default 1).
	ResolveHashFns int
	// EstimateError, if nonzero, perturbs each node's estimate of n by a
	// uniform factor in [1-e, 1+e] — the paper's robustness experiment.
	EstimateError float64
	// Shortcut is the default heuristic for Route* calls (default
	// NoPathKnowledge, as in the paper's evaluation).
	Shortcut Shortcut
}

// Builder assembles a network topology with flat node names.
type Builder struct {
	n        int
	names    []names.Name
	g        *graph.Graph
	haveName []bool
}

// NewBuilder starts a topology with n nodes (IDs 0..n-1) and default
// names "node<i>".
func NewBuilder(n int) *Builder {
	b := &Builder{n: n, g: graph.New(n), names: make([]names.Name, n), haveName: make([]bool, n)}
	for i := range b.names {
		b.names[i] = names.Name(fmt.Sprintf("node%d", i))
	}
	return b
}

// SetName assigns a flat, location-independent name to node v. Names are
// arbitrary strings (DNS names, MAC addresses, self-certifying hashes —
// the protocol never interprets them).
func (b *Builder) SetName(v int, name string) *Builder {
	b.names[v] = names.Name(name)
	b.haveName[v] = true
	return b
}

// AddLink adds an undirected link between u and v with the given latency
// (or cost; must be positive).
func (b *Builder) AddLink(u, v int, latency float64) *Builder {
	b.g.AddEdge(graph.NodeID(u), graph.NodeID(v), latency)
	return b
}

// Build validates the topology and constructs the converged Disco network.
func (b *Builder) Build(cfg Config) (*Network, error) {
	if b.n == 0 {
		return nil, fmt.Errorf("disco: empty network")
	}
	b.g.Finalize()
	if !b.g.Connected() {
		return nil, fmt.Errorf("disco: network is not connected (the paper assumes a connected graph)")
	}
	seen := map[names.Name]int{}
	for i, nm := range b.names {
		if j, dup := seen[nm]; dup {
			return nil, fmt.Errorf("disco: duplicate name %q on nodes %d and %d", nm, j, i)
		}
		seen[nm] = i
	}
	return newNetwork(b.g, b.names, cfg)
}

// Network is a converged Disco network: route packets by flat name,
// inspect addresses and per-node state.
type Network struct {
	cfg    Config
	env    *static.Env
	d      *core.Disco
	byName map[names.Name]graph.NodeID

	stateOnce  bool
	stateCache []static.StateBreakdown
}

func newNetwork(g *graph.Graph, nodeNames []names.Name, cfg Config) (*Network, error) {
	if cfg.Fingers == 0 {
		cfg.Fingers = 1
	}
	if cfg.ResolveHashFns == 0 {
		cfg.ResolveHashFns = 1
	}
	if cfg.Shortcut == 0 {
		cfg.Shortcut = core.ShortcutNoPathKnowledge
	}
	envOpts := []static.Option{}
	if cfg.EstimateError > 0 {
		envOpts = append(envOpts,
			static.WithNEst(estimate.InjectError(newRand(cfg.Seed), g.N(), cfg.EstimateError)))
	}
	env := static.NewEnvWithNames(g, nodeNames, envOpts...)
	dOpts := []core.DiscoOption{
		core.WithSeed(cfg.Seed),
		core.WithFingers(cfg.Fingers),
		core.WithResolveVNodes(cfg.ResolveHashFns),
	}
	if cfg.VicinitySize > 0 {
		dOpts = append(dOpts, core.WithNDOptions(core.WithK(cfg.VicinitySize)))
	}
	d := core.NewDisco(env, dOpts...)
	snap, err := snapshot.Build(g, d.ND.K, env.Landmarks)
	if err != nil {
		return nil, fmt.Errorf("disco: building route state: %w", err)
	}
	d.ND.UseSnapshot(snap)
	nw := &Network{cfg: cfg, env: env, d: d, byName: make(map[names.Name]graph.NodeID, g.N())}
	for i, nm := range nodeNames {
		nw.byName[nm] = graph.NodeID(i)
	}
	return nw, nil
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.env.N() }

// Landmarks returns the self-selected landmark node IDs.
func (nw *Network) Landmarks() []int {
	out := make([]int, len(nw.env.Landmarks))
	for i, lm := range nw.env.Landmarks {
		out[i] = int(lm)
	}
	return out
}

// Lookup resolves a flat name to its node ID.
func (nw *Network) Lookup(name string) (int, bool) {
	v, ok := nw.byName[names.Name(name)]
	return int(v), ok
}

// NameOf returns node v's flat name.
func (nw *Network) NameOf(v int) string { return string(nw.env.NameOf(graph.NodeID(v))) }

// Route is a materialized packet route.
type Route struct {
	Nodes   []int   // the nodes traversed, source first
	Length  float64 // total latency/cost
	Stretch float64 // Length divided by the shortest-path distance
}

func (nw *Network) route(srcName, dstName string, later bool) (Route, error) {
	s, ok := nw.byName[names.Name(srcName)]
	if !ok {
		return Route{}, fmt.Errorf("disco: unknown source name %q", srcName)
	}
	t, ok := nw.byName[names.Name(dstName)]
	if !ok {
		return Route{}, fmt.Errorf("disco: unknown destination name %q", dstName)
	}
	var p []graph.NodeID
	if later {
		p = nw.d.LaterRoute(s, t, nw.cfg.Shortcut)
	} else {
		p = nw.d.FirstRoute(s, t, nw.cfg.Shortcut)
	}
	length := nw.env.G.PathLength(p)
	short := nw.d.ND.ShortestDist(s, t)
	out := Route{Nodes: make([]int, len(p)), Length: length, Stretch: metrics.Stretch(length, short)}
	for i, v := range p {
		out.Nodes[i] = int(v)
	}
	return out, nil
}

// RouteFirst routes a flow's first packet from srcName to dstName, knowing
// only the destination's flat name. Worst-case stretch 7 after
// convergence (Theorem 1 of the paper).
func (nw *Network) RouteFirst(srcName, dstName string) (Route, error) {
	return nw.route(srcName, dstName, false)
}

// RouteLater routes packets after the first (the source has learned the
// destination's address; the handshake applies). Worst-case stretch 3.
func (nw *Network) RouteLater(srcName, dstName string) (Route, error) {
	return nw.route(srcName, dstName, true)
}

// AddressInfo describes a node's current (location-dependent, internal)
// address: its nearest landmark plus the compact explicit route.
type AddressInfo struct {
	Landmark  int
	Hops      int
	RouteBits int // encoded size of the explicit route in bits
}

// AddressOf returns the protocol-internal address of the named node.
func (nw *Network) AddressOf(name string) (AddressInfo, error) {
	v, ok := nw.byName[names.Name(name)]
	if !ok {
		return AddressInfo{}, fmt.Errorf("disco: unknown name %q", name)
	}
	a := nw.env.AddrOf(v)
	return AddressInfo{Landmark: int(a.Landmark), Hops: a.Hops(), RouteBits: a.Bits()}, nil
}

// StateInfo itemizes one node's routing-table entries.
type StateInfo struct {
	LandmarkRoutes int
	VicinityRoutes int
	LabelMappings  int
	Resolution     int
	GroupAddrs     int
	OverlayLinks   int
	Total          int
}

// stateVectors computes and caches the per-node breakdowns (the converged
// state never changes for a built Network).
func (nw *Network) stateVectors() []static.StateBreakdown {
	if !nw.stateOnce {
		_, _, _, db := nw.d.StateVectors()
		nw.stateCache = db
		nw.stateOnce = true
	}
	return nw.stateCache
}

// StateOf returns node v's routing state breakdown. The total is
// O~(sqrt(n)) on every topology — the protocol's scalability guarantee.
func (nw *Network) StateOf(v int) StateInfo {
	b := nw.stateVectors()[v]
	return StateInfo{
		LandmarkRoutes: b.LandmarkRoutes,
		VicinityRoutes: b.VicinityRoutes,
		LabelMappings:  b.LabelMappings,
		Resolution:     b.Resolution,
		GroupAddrs:     b.GroupAddrs,
		OverlayLinks:   b.OverlayLinks,
		Total:          b.Total(),
	}
}

// MaxState returns the maximum routing-table entry count over all nodes.
func (nw *Network) MaxState() int {
	max := 0
	for _, b := range nw.stateVectors() {
		if t := b.Total(); t > max {
			max = t
		}
	}
	return max
}

// Fallbacks reports how many first-packet routes used the landmark
// database fallback because no vicinity node held the destination's
// address (vanishingly rare with accurate estimates of n).
func (nw *Network) Fallbacks() int {
	fb, _ := nw.d.Fallbacks()
	return fb
}
