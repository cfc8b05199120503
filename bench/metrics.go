package main

import (
	"fmt"
	"math"
)

// metricDef names one metric of the benchmark. bound is the share of the
// base value by which an end-to-end metric may get worse before -compare
// (and the driver) call it a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them from its untraced run; README.md says what "op" means on
// each workload. BENCHMARK.json repeats this list and bench_test.go keeps
// the two equal.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_tail_us", "us", "lower", 0.25},
	{"retained_mb", "MB", "lower", 0.25},
	{"state_bytes_per_node", "B", "lower", 0.12},
	{"stretch_first_mean", "ratio", "lower", 0.12},
	{"stretch_later_mean", "ratio", "lower", 0.12},
}

// perLayer is what the traced run reports: every name starts with the
// module it measures. A metric that does not apply to a workload reads 0
// there.
var perLayer = []metricDef{
	// Setup phases and micro-probes -> setup_s (and ops_per_s on fig-stretch).
	{Name: "topology.build_s", Unit: "s", Better: "lower"},
	{Name: "static.env_s", Unit: "s", Better: "lower"},
	{Name: "core.new_disco_s", Unit: "s", Better: "lower"},
	{Name: "s4.new_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.build_s", Unit: "s", Better: "lower"},
	{Name: "forward.precompile_s", Unit: "s", Better: "lower"},
	{Name: "graph.sssp_full_us", Unit: "us", Better: "lower"},
	{Name: "graph.sssp_ball_us", Unit: "us", Better: "lower"},
	{Name: "snapshot.vicinity_read_ns", Unit: "ns", Better: "lower"},
	// Query side -> ops_per_s, op_p50_us on serve-*.
	{Name: "serve.probe_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.probe_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.null_probe_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.plane_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.overhead_residual_ns", Unit: "ns", Better: "lower"},
	{Name: "forward.route_first_ns", Unit: "ns", Better: "lower"},
	{Name: "forward.route_later_ns", Unit: "ns", Better: "lower"},
	{Name: "core.route_first_ns", Unit: "ns", Better: "lower"},
	{Name: "core.route_later_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.loop_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "route_mix.vic_share", Unit: "ratio", Better: "higher"},
	{Name: "route_mix.lm_share", Unit: "ratio", Better: "higher"},
	{Name: "route_mix.far_share", Unit: "ratio", Better: "lower"},
	{Name: "forward.route_ns.vic", Unit: "ns", Better: "lower"},
	{Name: "forward.route_ns.lm", Unit: "ns", Better: "lower"},
	{Name: "forward.route_ns.far", Unit: "ns", Better: "lower"},
	{Name: "core.route_ns.vic", Unit: "ns", Better: "lower"},
	{Name: "core.route_ns.lm", Unit: "ns", Better: "lower"},
	{Name: "core.route_ns.far", Unit: "ns", Better: "lower"},
	{Name: "forward.allocs_per_route", Unit: "count", Better: "lower"},
	{Name: "core.allocs_per_route", Unit: "count", Better: "lower"},
	{Name: "core.compact_route_us", Unit: "us", Better: "lower"},
	// Event side -> publish lag on serve-*, ops_per_s / op_* on churn-compact.
	{Name: "serve.publish_lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.publish_lag_ms_p80", Unit: "ms", Better: "lower"},
	{Name: "dynamics.event_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dynamics.event_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "dynamics.fail_ms", Unit: "ms", Better: "lower"},
	{Name: "dynamics.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.fold_event_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.folds", Unit: "count", Better: "lower"},
	{Name: "forward.derive_us", Unit: "us", Better: "lower"},
	{Name: "serve.publish_us", Unit: "us", Better: "lower"},
	{Name: "gen.event_late_ms_max", Unit: "ms", Better: "lower"},
	{Name: "snapshot.candidates_per_event", Unit: "count", Better: "lower"},
	{Name: "snapshot.vic_rebuilt_per_event", Unit: "count", Better: "lower"},
	{Name: "snapshot.rows_rebuilt_per_event", Unit: "count", Better: "lower"},
	{Name: "snapshot.rows_patched_per_event", Unit: "count", Better: "lower"},
	{Name: "snapshot.shards_rebuilt_share", Unit: "ratio", Better: "lower"},
	{Name: "snapshot.vic_useful_share", Unit: "ratio", Better: "higher"},
	{Name: "snapshot.overlay_shards_end", Unit: "count", Better: "lower"},
	{Name: "forward.dropped_shards_per_event", Unit: "count", Better: "lower"},
	{Name: "forward.lazy_recompiles_per_event", Unit: "count", Better: "lower"},
	// Plane lifecycle.
	{Name: "serve.epochs_published", Unit: "count", Better: "lower"},
	{Name: "serve.epochs_retired", Unit: "count", Better: "higher"},
	{Name: "serve.stale_share", Unit: "ratio", Better: "lower"},
	// fig-stretch -> ops_per_s.
	{Name: "pathtree.dest_dijkstra_us", Unit: "us", Better: "lower"},
	{Name: "core.disco_first_us", Unit: "us", Better: "lower"},
	{Name: "core.disco_later_us", Unit: "us", Better: "lower"},
	{Name: "s4.first_us", Unit: "us", Better: "lower"},
	{Name: "s4.later_us", Unit: "us", Better: "lower"},
	{Name: "core.fallback_share", Unit: "ratio", Better: "lower"},
	{Name: "parallel.efficiency", Unit: "ratio", Better: "higher"},
	// Runtime -> op_tail_us, retained_mb.
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.alloc_mb_per_event", Unit: "MB", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	// Harness.
	{Name: "graph.bridges_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

func findDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// measured is one reported value with its unit, as the result line and the
// result file carry it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's measurements. Every workload sets the
// end-to-end values and whatever per-layer values it has; emit picks the
// list the run's mode asks for.
type report struct {
	values  map[string]float64
	samples map[string]int // sample count behind a timing, where there is one

	attempted, failed int64
	failures          []string // first few, for the log
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric. An unknown name or a non-finite value is a bug in
// the bench, not a measurement.
func (r *report) set(name string, v float64) {
	_, e2e := findDef(endToEnd, name)
	_, layer := findDef(perLayer, name)
	if !e2e && !layer {
		panic("bench: metric " + name + " is not in the registry")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("bench: metric %s is %v", name, v))
	}
	r.values[name] = v
}

func (r *report) setN(name string, v float64, n int) {
	r.set(name, v)
	r.samples[name] = n
}

// fail counts one failed operation and keeps the first few descriptions.
func (r *report) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN counts n failed operations under one description.
func (r *report) failN(n int64, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// emit returns the metrics of the run's mode: every end-to-end metric for
// an untraced run, every per-layer metric for a traced one.
func (r *report) emit(traced bool) map[string]measured {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		out[d.Name] = measured{Value: r.values[d.Name], Unit: d.Unit}
	}
	return out
}
