package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

// loadSpec reads the bounds from BENCHMARK.json, which sits in the
// repository root, one level above this package.
func loadSpec() (*benchmarkSpec, error) {
	var firstErr error
	for _, path := range []string{"../BENCHMARK.json", "BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &spec, nil
	}
	return nil, firstErr
}

// loadResults reads the untraced results under path: a result file, a file
// holding a JSON array of results, or a directory of result files.
func loadResults(path string) ([]result, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var all []result
	for _, f := range files {
		if strings.HasSuffix(f, ".trace.json") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var many []result
		if err := json.Unmarshal(data, &many); err != nil {
			var one result
			if err := json.Unmarshal(data, &one); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			many = []result{one}
		}
		for _, r := range many {
			if !r.Traced {
				all = append(all, r)
			}
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("%s: no untraced results", path)
	}
	return all, nil
}

// medians returns, per workload, the median of every metric over the
// workload's runs and the workload's summed failed share.
func medians(rs []result) (map[string]map[string]float64, map[string]float64) {
	vals := map[string]map[string][]float64{}
	failed, attempted := map[string]int64{}, map[string]int64{}
	for _, r := range rs {
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
		}
		failed[r.Workload] += r.Failed
		attempted[r.Workload] += r.Attempted
	}
	med := map[string]map[string]float64{}
	share := map[string]float64{}
	for wl, byName := range vals {
		med[wl] = map[string]float64{}
		for name, xs := range byName {
			med[wl][name] = quantileOf(xs, 0.5)
		}
		share[wl] = float64(failed[wl]) / float64(attempted[wl])
	}
	return med, share
}

// compareResults prints one row per end-to-end metric and workload, base
// against new, and returns 1 when any metric is worse than its base by
// more than its bound or the failed share rose, else 0.
func compareResults(basePath, newPath string) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	baseRuns, err := loadResults(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	newRuns, err := loadResults(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	base, baseFailed := medians(baseRuns)
	cur, curFailed := medians(newRuns)

	workloads := make([]string, 0, len(base))
	for wl := range base {
		if _, ok := cur[wl]; ok {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		fmt.Fprintln(os.Stderr, "bench: the two sides share no workload")
		return 2
	}
	breaches := 0
	fmt.Printf("%-14s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "new", "change", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range spec.EndToEnd {
			b, okB := base[wl][d.Name]
			n, okN := cur[wl][d.Name]
			if !okB || !okN || b == 0 {
				fmt.Printf("%-14s %-22s %14s %14s %9s %6.0f%%  MISSING\n", wl, d.Name, "-", "-", "-", 100*d.Bound)
				breaches++
				continue
			}
			change := (n - b) / b
			worse := change
			if d.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			if worse > d.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("%-14s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", wl, d.Name, b, n, 100*change, 100*d.Bound, verdict)
		}
		verdict := "ok"
		if curFailed[wl] > baseFailed[wl] {
			verdict = "BREACH"
			breaches++
		}
		fmt.Printf("%-14s %-22s %14.6g %14.6g %9s %7s  %s\n", wl, "failed_share", baseFailed[wl], curFailed[wl], "", "any", verdict)
	}
	if breaches > 0 {
		fmt.Printf("%d breach(es)\n", breaches)
		return 1
	}
	return 0
}
