// Command bpexperiments regenerates the paper's tables and figures.
//
// A run has three steps. Each selected experiment declares every study,
// discovery and collection it reads; all of them run as one deduplicated
// plan (the same compiler as POST /studies:batch) on the -unit-workers
// budget; then the experiments render from the results, one after
// another in experiment order, which is formatting only. Output is
// byte-identical for any -unit-workers value and any -workers fleet.
//
// Usage:
//
//	bpexperiments -exp table4          # one experiment
//	bpexperiments -exp all             # everything (slow: full sweep)
//	bpexperiments -exp fig2 -quick     # reduced sweep for a fast look
//	bpexperiments -unit-workers 16     # widen the worker budget
//	bpexperiments -workers host1:8081,host2:8081   # shard units across bpworkers
//	bpexperiments -list                # available experiments
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"barrierpoint/internal/experiments"
	"barrierpoint/internal/sched"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment name (see -list) or 'all'")
		quick       = flag.Bool("quick", false, "reduced sweep: fewer discovery runs and thread counts")
		seed        = flag.Uint64("seed", 2017, "experiment seed")
		runs        = flag.Int("runs", 0, "override discovery runs (0 = preset)")
		unitWorkers = flag.Int("unit-workers", 0, "worker budget for the suite's one plan (0 = GOMAXPROCS)")
		workers     = flag.String("workers", "", "comma-separated bpworker addresses (host:port,...) to shard units across (empty = in-process)")
		winflight   = flag.Int("worker-inflight", 0, "concurrent units dispatched per remote worker (0 = default 4)")
		list        = flag.Bool("list", false, "list experiments and exit")
		cacheDir    = flag.String("cache-dir", "", "persistent cache directory shared across invocations (empty = memory only)")
		cacheMax    = flag.Int64("cache-max-bytes", 0, "persistent cache size bound in bytes (0 = unbounded)")
	)
	flag.Parse()

	if *list {
		all := experiments.All()
		width := 0
		for _, e := range all {
			width = max(width, len(e.Name))
		}
		for _, e := range all {
			fmt.Printf("%-*s  %s\n", width, e.Name, e.Description)
		}
		return
	}

	var selected []experiments.Experiment
	if *exp == "all" {
		selected = experiments.All()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			e, err := experiments.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "bpexperiments:", err)
				os.Exit(1)
			}
			selected = append(selected, e)
		}
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed
	if *runs > 0 {
		cfg.Runs = *runs
	}
	cfg.Workers = *unitWorkers
	// Distributed mode: study units are shipped to the bpworker fleet;
	// the local budget then only bounds dispatch concurrency.
	urls, err := sched.ParseWorkerList(*workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bpexperiments: -workers takes bpworker addresses (host:port,...); the local worker budget is -unit-workers: %v\n", err)
		os.Exit(2)
	}
	cfg.WorkerURLs = urls
	cfg.WorkerInflight = *winflight
	if len(cfg.WorkerURLs) > 0 {
		fmt.Fprintf(os.Stderr, "[distributing units across %d workers]\n", len(cfg.WorkerURLs))
	}
	var runner *experiments.Runner
	if *cacheDir != "" {
		// A persistent cache makes separate invocations share work: the
		// second run of an experiment (or of a study another experiment
		// already needed) is served from disk.
		var err error
		runner, err = experiments.NewPersistentRunner(cfg, *cacheDir, *cacheMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bpexperiments:", err)
			os.Exit(1)
		}
	} else {
		runner = experiments.NewRunner(cfg)
	}

	// Every selected experiment declares what it reads; the declarations
	// run as one plan on the whole budget, and rendering reads the
	// results. Each experiment renders into its own buffer, printed whole,
	// so one that fails to render prints nothing.
	renders := make([]func(io.Writer) error, len(selected))
	for i, e := range selected {
		renders[i] = e.Run(runner)
	}
	start := time.Now()
	plan, err := runner.Execute()
	if err == nil {
		fmt.Fprintf(os.Stderr, "[plan: %d members as %d units (%d naive, %d deduped, %d subsumed, %d cached studies) in %v]\n",
			plan.Studies, plan.PlannedUnits, plan.NaiveUnits, plan.DedupedUnits,
			plan.SubsumedUnits, plan.CachedStudies, time.Since(start).Round(time.Millisecond))
		for i, render := range renders {
			t0 := time.Now()
			var out bytes.Buffer
			if err = render(&out); err != nil {
				err = fmt.Errorf("%s: %w", selected[i].Name, err)
				break
			}
			os.Stdout.Write(out.Bytes())
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n",
				selected[i].Name, time.Since(t0).Round(time.Millisecond))
		}
	}
	// Close before exiting either way: pending write-behinds must reach
	// the persistent store even when an experiment failed.
	if cerr := runner.Close(); cerr != nil {
		fmt.Fprintln(os.Stderr, "bpexperiments: closing cache:", cerr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpexperiments:", err)
		os.Exit(1)
	}
	stats := runner.CacheStats()
	if stats.Disk != nil {
		fmt.Fprintf(os.Stderr, "[suite done in %v: %d experiments, cache %d hits / %d misses, disk %d hits / %d entries / %d bytes]\n",
			time.Since(start).Round(time.Millisecond), len(selected),
			stats.Hits, stats.Misses, stats.DiskHits, stats.Disk.Entries, stats.Disk.Bytes)
		return
	}
	fmt.Fprintf(os.Stderr, "[suite done in %v: %d experiments, cache %d hits / %d misses]\n",
		time.Since(start).Round(time.Millisecond), len(selected), stats.Hits, stats.Misses)
}
