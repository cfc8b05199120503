package eval

import "slices"

// Options is what a caller chooses about one run of an experiment from the
// table: the storage regime (Config), and the sizes and seeds every entry
// reads the same way.
type Options struct {
	Config
	N        int // network size; 0 = the entry's default
	Seed     int64
	Pairs    int  // sampled source-destination pairs
	Full     bool // paper-scale default sizes
	Events   int  // serve-storm: storm length (0 = default)
	Queriers int  // serve-storm: query goroutines (0 = GOMAXPROCS)
}

// size is the network size an entry runs at: N when set, else the paper's
// size under Full, else the scaled default.
func (o Options) size(scaled, paper int) int {
	if o.N > 0 {
		return o.N
	}
	if o.Full {
		return paper
	}
	return scaled
}

// sweepSizes is a size sweep's list with N, when set, merged in: ascending
// and without a repeat, because the sweeps' tables are read in row order
// (Fig. 8 extrapolates from the last event-driven row).
func (o Options) sweepSizes(sizes ...int) []int {
	if o.N > 0 {
		sizes = append(sizes, o.N)
	}
	slices.Sort(sizes)
	return slices.Compact(sizes)
}

// dynamicsTopo is where the three dynamics experiments run: G(n,m), or the
// router-level map at paper scale.
func (o Options) dynamicsTopo() (TopoKind, int) {
	kind := TopoGnm
	if o.Full && o.N == 0 {
		kind = TopoRouterLike
	}
	return kind, o.size(1024, 192244)
}

// Experiment is one row of the table: a name, a one-line description and
// the run, which returns the text the paper's figure or table reports.
type Experiment struct {
	Name string
	Desc string
	Run  func(Options) (string, error)
}

// Experiments is every experiment of the evaluation, in the paper's order:
// the one table cmd/discosim dispatches from and lists, and the root
// benchmarks iterate.
var Experiments = []Experiment{
	{"fig2", "state CDFs: Disco/NDDisco/S4 on geometric, AS-level, router-level", func(o Options) (string, error) {
		return o.Fig2State(TopoGeometric, o.size(4096, 16384), o.Seed).Format() +
			o.Fig2State(TopoASLike, o.size(4096, 30610), o.Seed).Format() +
			o.Fig2State(TopoRouterLike, o.size(8192, 192244), o.Seed).Format(), nil
	}},
	{"fig3", "stretch CDFs (first/later): Disco vs S4 on the three topologies", func(o Options) (string, error) {
		return o.Fig3Stretch(TopoGeometric, o.size(4096, 16384), o.Seed, o.Pairs).Format() +
			o.Fig3Stretch(TopoASLike, o.size(4096, 30610), o.Seed, o.Pairs).Format() +
			o.Fig3Stretch(TopoRouterLike, o.size(8192, 192244), o.Seed, o.Pairs).Format(), nil
	}},
	{"fig4", "state/stretch/congestion incl. VRR on 1,024-node G(n,m)", func(o Options) (string, error) {
		return o.Fig45(TopoGnm, o.size(1024, 1024), o.Seed, o.Pairs).Format(), nil
	}},
	{"fig5", "state/stretch/congestion incl. VRR on 1,024-node geometric", func(o Options) (string, error) {
		return o.Fig45(TopoGeometric, o.size(1024, 1024), o.Seed, o.Pairs).Format(), nil
	}},
	{"fig6", "mean stretch for the six shortcutting heuristics x four topologies", func(o Options) (string, error) {
		return o.Fig6Shortcuts([]Fig6Spec{
			{Label: "AS-Level", Kind: TopoASLike, N: o.size(2048, 30610)},
			{Label: "Router-level", Kind: TopoRouterLike, N: o.size(2048, 192244)},
			{Label: "Geometric", Kind: TopoGeometric, N: o.size(2048, 16384)},
			{Label: "GNM", Kind: TopoGnm, N: o.size(2048, 16384)},
		}, o.Seed, o.Pairs).Format(), nil
	}},
	{"fig7", "state in entries and KB (IPv4/IPv6 names) on router-level", func(o Options) (string, error) {
		return o.Fig7StateBytes(o.size(8192, 192244), o.Seed).Format(), nil
	}},
	{"fig8", "messages/node until convergence vs n (event-driven simulation)", func(o Options) (string, error) {
		return Fig8Convergence(o.sweepSizes(128, 256, 512, 1024), 512, o.Seed).Format(), nil
	}},
	{"fig9", "scaling sweep: mean stretch and state vs n, geometric graphs", func(o Options) (string, error) {
		sizes := []int{1024, 2048, 4096, 8192}
		if o.Full {
			sizes = []int{2048, 4096, 8192, 16384}
		}
		return o.Fig9Scaling(o.sweepSizes(sizes...), o.Seed, o.Pairs).Format(), nil
	}},
	{"fig10", "congestion tail on the AS-level topology", func(o Options) (string, error) {
		return o.Fig10ASCongestion(o.size(4096, 30610), o.Seed).Format(), nil
	}},
	{"addrsize", "explicit-route address sizes on the router-level map (§4.2)", func(o Options) (string, error) {
		return AddrSizes(o.size(16384, 192244), o.Seed).Format(), nil
	}},
	{"accuracy", "static vs event-driven simulator agreement (§5)", func(o Options) (string, error) {
		return o.StaticAccuracy(o.size(512, 1024), o.Seed, o.Pairs).Format(), nil
	}},
	{"nerror", "robustness to error in the estimate of n (§5)", func(o Options) (string, error) {
		n := o.size(1024, 1024)
		return o.EstimateError(n, o.Seed, 0.4, o.Pairs).Format() +
			o.EstimateError(n, o.Seed, 0.6, o.Pairs).Format(), nil
	}},
	{"fingers", "1 vs 3 overlay fingers: dissemination distance and messages (§5)", func(o Options) (string, error) {
		return FingerExperiment(o.size(1024, 1024), o.Seed).Format(), nil
	}},
	{"imbalance", "resolution-DB load imbalance: 1 vs 8 hash functions (§4.5)", func(o Options) (string, error) {
		return ResolveImbalance(o.size(4096, 16384), o.Seed).Format(), nil
	}},
	{"landmarks", "operator-chosen landmarks: random vs high/low degree (§6)", func(o Options) (string, error) {
		return o.LandmarkStrategies(TopoASLike, o.size(2048, 30610), o.Seed, o.Pairs).Format(), nil
	}},
	{"tradeoff", "TZ k-level state/stretch tradeoff sweep (§6 future work)", func(o Options) (string, error) {
		return TradeoffSweep(TopoGnm, o.size(2048, 16384), []int{1, 2, 3, 4}, o.Seed, o.Pairs).Format(), nil
	}},
	{"churn", "messages to re-converge after a link failure (§5 future work)", func(o Options) (string, error) {
		r, err := ChurnCost(o.size(256, 1024), o.Seed, 5)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	}},
	{"failures", "delivery and stretch after link/node/region failures on repaired snapshots", func(o Options) (string, error) {
		kind, n := o.dynamicsTopo()
		return o.FailureScenarios(kind, n, o.Seed, o.Pairs).Format(), nil
	}},
	{"churn-timeline", "continuous churn: snapshot timeline with recovery + modeled message cost", func(o Options) (string, error) {
		kind, n := o.dynamicsTopo()
		r, err := o.ChurnTimeline(kind, n, o.Seed, o.Pairs, 0)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	}},
	{"serve-storm", "serving mode: lock-free queries during a fail/recover storm (epochs + staleness)", func(o Options) (string, error) {
		kind, n := o.dynamicsTopo()
		r, err := o.ServeStorm(kind, n, o.Seed, o.Pairs, o.Events, o.Queriers)
		if err != nil {
			return "", err
		}
		return r.Format(), nil
	}},
}
