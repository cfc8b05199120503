package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// smallConfig is a workload at n=256 with windows of a fraction of a
// second, so that the whole suite takes a few seconds.
func smallConfig(t *testing.T, workload string, seed int64, traced bool) config {
	t.Helper()
	c, err := configFor(workload, seed, 1, traced)
	if err != nil {
		t.Fatal(err)
	}
	c.n, c.setupReps, c.verify, c.micro = 256, 2, 100, 2000
	switch workload {
	case serveTables, serveWalk:
		c.window, c.interval, c.slices, c.events = 400*time.Millisecond, 20*time.Millisecond, 4, 16
	case churnCompact:
		c.events, c.pairs = 24, 40
	case figStretch:
		c.slices, c.pairs = 2, 400
	}
	return c
}

// exact lists the metrics that are counts or exact ratios of the seeded
// inputs: they must repeat bit for bit on one seed.
var exact = []string{
	"state_bytes_per_node", "stretch_first_mean", "stretch_later_mean",
	"snapshot.candidates_per_event", "snapshot.vic_rebuilt_per_event",
	"snapshot.rows_rebuilt_per_event", "snapshot.rows_patched_per_event",
	"snapshot.shards_rebuilt_share", "snapshot.vic_useful_share",
	"snapshot.overlay_shards_end", "snapshot.folds",
	"forward.dropped_shards_per_event",
	"serve.epochs_published", "serve.epochs_retired", "core.fallback_share",
}

// applies lists, per workload, per-layer metrics that must read above
// zero there: one from every group the workload is meant to load.
var applies = map[string][]string{
	serveTables: {
		"topology.build_s", "static.env_s", "core.new_disco_s", "snapshot.build_s", "forward.precompile_s",
		"graph.sssp_full_us", "graph.sssp_ball_us", "snapshot.vicinity_read_ns",
		"serve.probe_ns", "serve.null_probe_ns", "forward.route_first_ns", "forward.route_later_ns",
		"bench.loop_overhead_ns", "route_mix.vic_share", "route_mix.far_share", "forward.route_ns.far",
		"serve.publish_lag_ms_p50", "serve.publish_lag_ms_p80", "dynamics.fail_ms", "dynamics.recover_ms",
		"forward.derive_us", "serve.publish_us", "snapshot.candidates_per_event",
		"snapshot.vic_rebuilt_per_event", "snapshot.shards_rebuilt_share", "snapshot.vic_useful_share",
		"forward.dropped_shards_per_event", "forward.lazy_recompiles_per_event",
		"serve.epochs_published", "serve.epochs_retired", "runtime.alloc_mb_per_event",
		"graph.bridges_ms", "verify.s", "trace.overhead_share",
	},
	serveWalk: {
		"snapshot.build_s", "serve.probe_ns", "core.route_first_ns", "core.route_later_ns",
		"core.route_ns.far", "core.allocs_per_route", "route_mix.lm_share",
		"serve.publish_lag_ms_p50", "serve.publish_us", "serve.epochs_retired", "trace.overhead_share",
	},
	churnCompact: {
		"snapshot.build_s", "snapshot.vicinity_read_ns", "core.compact_route_us", "core.allocs_per_route",
		"dynamics.fail_ms", "dynamics.recover_ms", "snapshot.candidates_per_event",
		"snapshot.vic_rebuilt_per_event", "runtime.alloc_mb_per_event",
		"graph.bridges_ms", "verify.s", "trace.overhead_share",
	},
	figStretch: {
		"s4.new_s", "snapshot.build_s", "graph.sssp_full_us", "pathtree.dest_dijkstra_us",
		"core.disco_first_us", "core.disco_later_us", "s4.first_us", "s4.later_us",
		"parallel.efficiency", "runtime.alloc_mb_per_event", "trace.overhead_share",
	},
}

func mustRun(t *testing.T, c config) *report {
	t.Helper()
	r, err := run(c, newTracer(c.traced))
	if err != nil {
		t.Fatalf("%s seed %d: %v", c.workload, c.seed, err)
	}
	if r.failed != 0 || r.attempted < 1 {
		t.Fatalf("%s seed %d: %d failed of %d attempted: %v", c.workload, c.seed, r.failed, r.attempted, r.failures)
	}
	return r
}

func TestWorkloads(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			traced := mustRun(t, smallConfig(t, wl, 1, true))
			untraced := mustRun(t, smallConfig(t, wl, 1, false))
			other := mustRun(t, smallConfig(t, wl, 2, false))

			// Every named metric is emitted, finite and carries its unit;
			// an end-to-end metric is never 0.
			for _, d := range endToEnd {
				for _, r := range []*report{untraced, other} {
					m, ok := r.emit(false)[d.Name]
					if !ok || m.Unit != d.Unit || m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
						t.Errorf("end-to-end %s = %+v (emitted %v)", d.Name, m, ok)
					}
				}
			}
			layers := traced.emit(true)
			if len(layers) != len(perLayer) {
				t.Errorf("traced run emitted %d per-layer metrics, registry has %d", len(layers), len(perLayer))
			}
			for _, d := range perLayer {
				m, ok := layers[d.Name]
				if !ok || m.Unit != d.Unit || m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer %s = %+v (emitted %v)", d.Name, m, ok)
				}
			}
			for _, name := range applies[wl] {
				if layers[name].Value <= 0 {
					t.Errorf("per-layer %s = %v, want > 0 on %s", name, layers[name].Value, wl)
				}
			}

			// Counts repeat exactly on one seed, traced or not.
			for _, name := range exact {
				if a, b := traced.values[name], untraced.values[name]; a != b {
					t.Errorf("%s differs between two runs of seed 1: %v vs %v", name, a, b)
				}
			}
			if wl == serveTables || wl == serveWalk {
				if p, rt := traced.values["serve.epochs_published"], traced.values["serve.epochs_retired"]; p != rt || p < 17 {
					t.Errorf("epochs published %v, retired %v, want equal and at least 17", p, rt)
				}
			}
			if traced.values["forward.allocs_per_route"] != 0 {
				t.Errorf("forward.allocs_per_route = %v, want 0", traced.values["forward.allocs_per_route"])
			}
		})
	}
}

// The two serve workloads ask the same questions of the same topology and
// storm, so what does not depend on the plane must agree.
func TestServeLikeForLike(t *testing.T) {
	a := mustRun(t, smallConfig(t, serveTables, 3, false))
	b := mustRun(t, smallConfig(t, serveWalk, 3, false))
	for _, name := range exact {
		if a.values[name] != b.values[name] {
			t.Errorf("%s: serve-tables %v, serve-walk %v", name, a.values[name], b.values[name])
		}
	}
}

// BENCHMARK.json repeats the registry; the driver reads the file, the
// bench emits from the registry.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the registry:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the registry")
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, qps float64, failed int64) string {
		res := result{Workload: serveTables, Attempted: 100, Failed: failed, Metrics: map[string]measured{}}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = measured{Value: 1, Unit: d.Unit}
		}
		res.Metrics["ops_per_s"] = measured{Value: qps, Unit: "1/s"}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1000, 0)
	if got := compareResults(base, write("same.json", 950, 0)); got != 0 {
		t.Errorf("5%% slower: exit %d, want 0", got)
	}
	if got := compareResults(base, write("slow.json", 700, 0)); got != 1 {
		t.Errorf("30%% slower: exit %d, want 1", got)
	}
	if got := compareResults(base, write("failing.json", 1000, 1)); got != 1 {
		t.Errorf("a failed operation: exit %d, want 1", got)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 1000e3
		if got := h.quantile(q); math.Abs(got-want)/want > 0.02 {
			t.Errorf("quantile(%v) = %v ns, want within 2%% of %v", q, got, want)
		}
	}
}
