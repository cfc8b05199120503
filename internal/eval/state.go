package eval

import (
	"fmt"
	"strings"

	"disco/internal/addr"
	"disco/internal/metrics"
	"disco/internal/parallel"
	"disco/internal/static"
)

// StateResult holds per-protocol state CDFs (Fig. 2 and the state panels
// of Figs. 4 and 5).
type StateResult struct {
	Kind   TopoKind
	N      int
	Labels []string
	CDFs   []*metrics.CDF
}

// Format renders the result as the figure's summary table.
func (r *StateResult) Format() string {
	return metrics.FormatSeries(
		fmt.Sprintf("State at a node (entries) — %s, n=%d", r.Kind, r.N),
		r.Labels, r.CDFs)
}

// Fig2State reproduces Fig. 2: the CDF over nodes of data-plane state for
// Disco, NDDisco and S4 on one topology. The paper runs it on the
// 16,384-node geometric graph and the AS-level and router-level Internet
// maps.
func (c Config) Fig2State(kind TopoKind, n int, seed int64) *StateResult {
	p := c.BuildProtocols(kind, n, seed)
	ndE, dE, _, _ := p.Disco.StateVectors()
	s4E, _ := p.S4.StateVectors(p.S4.ClusterSizesAll())
	return &StateResult{
		Kind:   kind,
		N:      n,
		Labels: []string{"Disco", "ND-Disco", "S4"},
		CDFs:   []*metrics.CDF{intsToCDF(dE), intsToCDF(ndE), intsToCDF(s4E)},
	}
}

// StateWithVRR extends the state comparison with VRR and path vector (the
// left panels of Figs. 4 and 5, 1,024-node topologies). The VRR instance
// is the memoized sealed build; its entry counts read off the flat offset
// arrays.
func StateWithVRR(p *Protocols, kind TopoKind, seed int64) *StateResult {
	ndE, dE, _, _ := p.Disco.StateVectors()
	s4E, _ := p.S4.StateVectors(p.S4.ClusterSizesAll())
	v := p.VRR(seed)
	return &StateResult{
		Kind:   kind,
		N:      p.Env.N(),
		Labels: []string{"Disco", "ND-Disco", "S4", "VRR", "Path-vector"},
		CDFs: []*metrics.CDF{
			intsToCDF(dE), intsToCDF(ndE), intsToCDF(s4E),
			intsToCDF(v.StateEntries()), intsToCDF(p.SPR.StateEntries()),
		},
	}
}

// Fig7Row is one protocol's row of the Fig. 7 table.
type Fig7Row struct {
	Name                    string
	MeanEntries, MaxEntries float64
	MeanKBv4, MaxKBv4       float64 // kilobytes with IPv4-sized names
	MeanKBv6, MaxKBv6       float64 // kilobytes with IPv6-sized names
}

// Fig7Result is the Fig. 7 table: state at a node on the router-level
// topology in entries and bytes.
type Fig7Result struct {
	N    int
	Rows []Fig7Row
}

// Format renders the table in the paper's layout.
func (r *Fig7Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7 — State at a node, router-level topology (n=%d)\n", r.N)
	fmt.Fprintf(&b, "  %-10s %12s %12s %11s %11s %11s %11s\n",
		"protocol", "entries-mean", "entries-max", "KB(v4)mean", "KB(v4)max", "KB(v6)mean", "KB(v6)max")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %12.1f %12.0f %11.2f %11.2f %11.2f %11.2f\n",
			row.Name, row.MeanEntries, row.MaxEntries,
			row.MeanKBv4, row.MaxKBv4, row.MeanKBv6, row.MaxKBv6)
	}
	return b.String()
}

// Fig7StateBytes reproduces Fig. 7 on the router-like topology: mean/max
// state in entries and in kilobytes under IPv4- and IPv6-sized names.
func (c Config) Fig7StateBytes(n int, seed int64) *Fig7Result {
	p := c.BuildProtocols(TopoRouterLike, n, seed)
	ndE, dE, ndB, dB := p.Disco.StateVectors()
	s4E, s4B := p.S4.StateVectors(p.S4.ClusterSizesAll())
	avgAddr, _, _ := p.Env.AddrSizeStats()

	res := &Fig7Result{N: n}
	// bytesStats computes per-node byte sizes on the worker pool and
	// reduces them in node order, so the float mean never depends on the
	// schedule.
	bytesStats := func(bs []static.StateBreakdown, m addr.SizeModel) (mean, max float64) {
		sizes := parallel.Map(n, func(v int) float64 { return bs[v].Bytes(m, avgAddr) })
		total := 0.0
		for _, b := range sizes {
			total += b
			if b > max {
				max = b
			}
		}
		return total / float64(n), max
	}
	push := func(name string, entries []int, bs []static.StateBreakdown) {
		c := intsToCDF(entries)
		m4, x4 := bytesStats(bs, addr.SizeModel{NameBytes: 4})
		m6, x6 := bytesStats(bs, addr.SizeModel{NameBytes: 16})
		res.Rows = append(res.Rows, Fig7Row{
			Name:        name,
			MeanEntries: c.Mean(), MaxEntries: c.Max(),
			MeanKBv4: m4 / 1024, MaxKBv4: x4 / 1024,
			MeanKBv6: m6 / 1024, MaxKBv6: x6 / 1024,
		})
	}
	push("S4", s4E, s4B)
	push("ND-Disco", ndE, ndB)
	push("Disco", dE, dB)
	return res
}

// AddrSizeResult is the §4.2 explicit-route size measurement.
type AddrSizeResult struct {
	N                 int
	MeanB, P95B, MaxB float64
}

// Format renders the measurement.
func (r *AddrSizeResult) Format() string {
	return fmt.Sprintf("Address (explicit route) sizes on router-like map n=%d: mean=%.2fB p95=%.2fB max=%.3fB\n"+
		"  (paper, CAIDA router map: mean=2.93B p95=5B max=10.625B)\n",
		r.N, r.MeanB, r.P95B, r.MaxB)
}

// AddrSizes reproduces the §4.2 address-size measurement on the
// router-like topology.
func AddrSizes(n int, seed int64) *AddrSizeResult {
	g := BuildTopo(TopoRouterLike, n, seed)
	env := static.NewEnv(g, seed)
	mean, p95, max := env.AddrSizeStats()
	return &AddrSizeResult{N: n, MeanB: mean, P95B: p95, MaxB: max}
}
