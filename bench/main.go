// Command bench is the repository's benchmark: four workloads over the
// snapshot -> repair -> tables -> serve plane and the figure harness, each
// measured end to end by an untraced run and layer by layer by a traced
// one. Every layer is timed from outside, around calls into its exported
// functions. README.md has the workload and metric tables.
//
//	go -C bench run . -workload serve-tables -seed 1 -seconds 10 -trace 0
//	go -C bench run . -compare out/a out/b
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"disco/internal/parallel"
)

// stamp is the box and the sizes a result was measured with.
type stamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"parallel_workers"` // parallel.SetWorkers, set once per process
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Rev        string `json:"git_rev"`
	N          int    `json:"n"`
	Events     int    `json:"events"`
	Pairs      int    `json:"pairs"`
	Verify     int    `json:"verify_pairs"`
	SetupReps  int    `json:"setup_reps"`
	Seconds    int    `json:"seconds"`
}

// result is one run as the result file keeps it; the last line of standard
// output carries its Correct, Attempted, Failed and Metrics.
type result struct {
	Stamp     stamp               `json:"stamp"`
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Traced    bool                `json:"traced"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	Samples   map[string]int      `json:"samples,omitempty"`
	Failures  []string            `json:"failures,omitempty"`
	Layers    []layerRow          `json:"layer_self_times,omitempty"`
}

// run measures one workload once: set-up, the timed window or loop, and
// the untimed verification pass.
func run(c config, tr *tracer) (*report, error) {
	parallel.SetWorkers(c.workers())
	r := newReport()
	w, err := setupMedian(c, tr, r)
	if err != nil {
		return nil, err
	}
	if c.traced {
		microProbes(c, w, r)
	}
	switch c.workload {
	case serveTables, serveWalk:
		runServe(c, w, tr, r)
	case churnCompact:
		runChurn(c, w, tr, r)
	case figStretch:
		runFig(c, w, tr, r)
	}
	return r, nil
}

// fatal reports err and exits 1: the run has no result to print.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// gitRev reads the checked-out commit from the repository's .git without
// starting a process; a checkout that is not a git repository is
// "unknown".
func gitRev() string {
	for _, dir := range []string{"../.git", ".git"} {
		head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
		if err != nil {
			continue
		}
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if rev, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
			return strings.TrimSpace(string(rev))
		}
		packed, _ := os.ReadFile(filepath.Join(dir, "packed-refs")) // absent when nothing is packed
		for _, line := range strings.Split(string(packed), "\n") {
			if rev, ok := strings.CutSuffix(line, " "+ref); ok {
				return rev
			}
		}
	}
	return "unknown"
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed of topology, storm, pair and query streams")
	seconds := flag.Int("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a Chrome trace file; 0 = end-to-end metrics")
	compare := flag.Bool("compare", false, "compare two result files or directories (base, new) against the bounds in BENCHMARK.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files or directories: base new")
			os.Exit(2)
		}
		os.Exit(compareResults(flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "bench: need -seconds >= 1, -trace 0 or 1, and no further arguments")
		os.Exit(2)
	}
	c, err := configFor(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}

	tr := newTracer(c.traced)
	r, err := run(c, tr)
	if err != nil {
		fatal(err)
	}
	res := result{
		Stamp: stamp{
			GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: c.workers(), CPU: cpuModel(),
			Go: runtime.Version(), Rev: gitRev(),
			N: c.n, Events: c.events, Pairs: c.pairs, Verify: c.verify, SetupReps: c.setupReps, Seconds: *seconds,
		},
		Workload: c.workload, Seed: c.seed, Traced: c.traced,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: r.emit(c.traced), Samples: r.samples, Failures: r.failures,
	}

	if err := os.MkdirAll("out", 0o755); err != nil {
		fatal(err)
	}
	base := filepath.Join("out", fmt.Sprintf("%s-s%d-t%d", c.workload, c.seed, *trace))
	if c.traced {
		res.Layers = tr.summary()
		if err := tr.write(base + ".trace.json"); err != nil {
			fatal(err)
		}
	}
	printResult(&res)
	data, err := json.MarshalIndent(&res, "", "  ")
	if err == nil {
		err = os.WriteFile(base+".json", append(data, '\n'), 0o644)
	}
	if err != nil {
		fatal(err)
	}

	line, err := json.Marshal(struct {
		Correct   bool                `json:"correct"`
		Attempted int64               `json:"attempted"`
		Failed    int64               `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// printResult prints the stamp and every metric by name with its unit and
// sample count, for people; the machine-readable line follows it.
func printResult(res *result) {
	s := res.Stamp
	fmt.Printf("workload %s  seed %d  traced %v  rev %s\n", res.Workload, res.Seed, res.Traced, s.Rev)
	fmt.Printf("box: GOMAXPROCS=%d parallel.SetWorkers=%d cpu=%q %s\n", s.GOMAXPROCS, s.Workers, s.CPU, s.Go)
	fmt.Printf("sizes: n=%d events=%d pairs=%d verify_pairs=%d setup_reps=%d seconds=%d\n",
		s.N, s.Events, s.Pairs, s.Verify, s.SetupReps, s.Seconds)
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Printf("  %-36s %16.6g %-6s", d.Name, m.Value, m.Unit)
		if n, ok := res.Samples[d.Name]; ok {
			fmt.Printf(" n=%d", n)
		}
		fmt.Println()
	}
	fmt.Printf("  %-36s %16.6g %-6s (%d failed of %d attempted)\n", "failed_share",
		float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Println("  FAILED:", f)
	}
	if len(res.Layers) > 0 {
		fmt.Println("layer self times (span minus its children):")
		for _, l := range res.Layers {
			fmt.Printf("  %-36s count %7d  total %12.3f ms  self %12.3f ms\n", l.Name, l.Count, l.TotalMs, l.SelfMs)
		}
	}
}
