// Command discosim runs the paper's experiments (§5) and prints the same
// rows and series the figures and tables report.
//
// Usage:
//
//	discosim -exp fig2                 # one experiment at default (scaled) sizes
//	discosim -exp all                  # everything
//	discosim -exp fig3 -n 16384        # override the size
//	discosim -exp fig2 -full           # paper-scale sizes (slow, much memory)
//	discosim -exp fig3 -workers 8      # bound the worker pool (default GOMAXPROCS)
//	discosim -exp fig2 -n 16384 -memprofile mem.pb.gz
//	                                   # report peak RSS and write a heap profile
//	                                   # (the -full feasibility workflow)
//	discosim -exp fig3 -full -compact  # paper scale on the compact snapshot
//	                                   # encoding (~6.4x less route-state memory;
//	                                   # lossless: the same output on every topology)
//	discosim -exp serve-storm -n 1024 -queriers 8
//	                                   # serving mode: answer route queries
//	                                   # lock-free WHILE a fail/recover storm
//	                                   # repairs and republishes the snapshot
//	                                   # chain (-events bounds the storm)
//	discosim -list                     # list experiments
//
// Experiment output is bit-identical at any -workers value: the harness
// derives all randomness before fanning out and merges results in task
// order (see internal/parallel). The serving mode's per-epoch event log is
// likewise deterministic; its qps/latency/staleness line is wall-clock.
//
// Experiments: fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 addrsize
// accuracy nerror fingers imbalance landmarks tradeoff churn failures
// churn-timeline serve-storm.
// (TestDocListsEveryExperiment keeps this list in sync with the table,
// eval.Experiments; -list prints it.)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"disco/internal/eval"
	"disco/internal/parallel"
)

// peakRSSBytes returns the process's peak resident set size (VmHWM from
// /proc/self/status) in bytes, or 0 when unavailable (non-Linux).
func peakRSSBytes() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line) // "VmHWM:  123456 kB"
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// reportMemory prints the peak-RSS / heap summary and writes the heap
// profile the -full feasibility analysis needs: paper-scale runs are
// memory-bound, so their footprint is measured, not guessed.
func reportMemory(profilePath string) {
	runtime.GC() // settle the heap so the profile reflects live state
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const mb = 1024 * 1024
	line := fmt.Sprintf("memory: heap-live %.1f MB, total-alloc %.1f MB, sys %.1f MB",
		float64(ms.HeapAlloc)/mb, float64(ms.TotalAlloc)/mb, float64(ms.Sys)/mb)
	if rss := peakRSSBytes(); rss > 0 {
		line = fmt.Sprintf("memory: peak RSS %.1f MB, %s", float64(rss)/mb, line[len("memory: "):])
	}
	fmt.Println(line)
	f, err := os.Create(profilePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		return
	}
	defer f.Close()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		return
	}
	fmt.Printf("memory: heap profile written to %s (go tool pprof -sample_index=inuse_space)\n", profilePath)
}

// validateFlags rejects flag combinations that would otherwise fail deep
// inside an experiment with an unhelpful message: sizes and pair counts
// feed directly into topology generation and sampling loops. Returns the
// first problem found; main reports it and exits 2 (usage error).
func validateFlags(n int, seed int64, pairs, events, queriers, workers int) error {
	if n < 0 {
		return fmt.Errorf("-n must be >= 0 (0 = experiment default), got %d", n)
	}
	if pairs <= 0 {
		return fmt.Errorf("-pairs must be >= 1, got %d", pairs)
	}
	if seed < 0 {
		return fmt.Errorf("-seed must be >= 0 (seeds derive per-task RNG streams), got %d", seed)
	}
	if events < 0 {
		return fmt.Errorf("-events must be >= 0 (0 = default storm length), got %d", events)
	}
	if queriers < 0 {
		return fmt.Errorf("-queriers must be >= 0 (0 = GOMAXPROCS), got %d", queriers)
	}
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", workers)
	}
	return nil
}

// checkSelection rejects an experiment selection main cannot honour: no
// experiment at all (unless -list was asked for, which runs none), and the
// serving-mode flags on a run that would silently ignore them. main
// reports the error and exits 2, as for validateFlags.
func checkSelection(exp string, list bool, events, queriers int) error {
	if list {
		return nil
	}
	if exp == "" {
		return fmt.Errorf("no experiment selected: pass -exp <name>")
	}
	if exp != "serve-storm" && exp != "all" && (events != 0 || queriers != 0) {
		return fmt.Errorf("-events and -queriers apply only to -exp serve-storm and -exp all, not -exp %s", exp)
	}
	return nil
}

func main() {
	exp := flag.String("exp", "", "experiment to run (see -list), or 'all'")
	n := flag.Int("n", 0, "override network size (0 = experiment default)")
	seed := flag.Int64("seed", 1, "random seed")
	pairs := flag.Int("pairs", 500, "sampled source-destination pairs")
	full := flag.Bool("full", false, "use paper-scale sizes (up to 192,244 nodes; slow)")
	compact := flag.Bool("compact", false, "build route-state snapshots in the compact encoding (Elias–Fano-coded member IDs, distances as BFS levels or float64 bits; ~6.4x less memory — the -full enabler). Lossless: the output is the same on every topology")
	workers := flag.Int("workers", 0, "worker pool size for parallel sweeps (0 = GOMAXPROCS); results are identical at any value")
	memprofile := flag.String("memprofile", "", "write a heap profile here after the run and report peak RSS (the -full feasibility workflow)")
	events := flag.Int("events", 0, "serve-storm: storm length in fail/recover events (0 = 16)")
	queriers := flag.Int("queriers", 0, "serve-storm: concurrent query goroutines (0 = GOMAXPROCS)")
	list := flag.Bool("list", false, "list experiments")
	flag.Parse()
	if err := validateFlags(*n, *seed, *pairs, *events, *queriers, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "discosim: %v\n", err)
		os.Exit(2)
	}
	parallel.SetWorkers(*workers)

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range eval.Experiments {
			fmt.Printf("  %-14s %s\n", e.Name, e.Desc)
		}
	}
	if err := checkSelection(*exp, *list, *events, *queriers); err != nil {
		fmt.Fprintf(os.Stderr, "discosim: %v\n", err)
		os.Exit(2)
	}
	if *list {
		return
	}
	runExperiment := func(e eval.Experiment, o eval.Options) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		out, err := e.Run(o)
		fmt.Print(out)
		return err
	}

	o := eval.Options{Config: eval.Config{Compact: *compact}, N: *n, Seed: *seed, Pairs: *pairs, Full: *full, Events: *events, Queriers: *queriers}
	ran := false
	var failed []string
	for _, e := range eval.Experiments {
		if *exp == "all" || *exp == e.Name {
			//disco:measured wall-clock experiment duration, printed as a progress aside, never in figure data
			start := time.Now()
			fmt.Printf("== %s: %s ==\n", e.Name, e.Desc)
			// A failing experiment must not abort the sweep: report it,
			// keep going, and only exit nonzero after the remaining
			// experiments and the memory report have run. Panics count as
			// failures too — one experiment blowing up at an extreme -n
			// must not cost the rest of an -exp all run.
			if err := runExperiment(e, o); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
				failed = append(failed, e.Name)
			}
			//disco:measured wall-clock experiment duration, printed as a progress aside, never in figure data
			fmt.Printf("   (%.1fs)\n\n", time.Since(start).Seconds())
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	if *memprofile != "" {
		reportMemory(*memprofile)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "discosim: %d experiment(s) failed: %s\n", len(failed), strings.Join(failed, ", "))
		os.Exit(1)
	}
}
