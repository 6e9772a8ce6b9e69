// Command bpexperiments regenerates the paper's tables and figures.
//
// Experiments render concurrently on the study scheduler — each study's
// discovery runs and collections fan out across a bounded worker pool,
// and experiments sharing studies deduplicate through the runner's
// result cache — but output is printed in experiment order and is
// byte-identical for any -workers value.
//
// Usage:
//
//	bpexperiments -exp table4          # one experiment
//	bpexperiments -exp all             # everything (slow: full sweep)
//	bpexperiments -exp fig2 -quick     # reduced sweep for a fast look
//	bpexperiments -batch               # pre-plan the study sweep as one DAG
//	bpexperiments -unit-workers 16     # widen the scheduler
//	bpexperiments -workers host1:8081,host2:8081   # shard units across bpworkers
//	bpexperiments -list                # available experiments
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
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
		unitWorkers = flag.Int("unit-workers", 0, "total worker budget across experiments and per-study units (0 = GOMAXPROCS)")
		workers     = flag.String("workers", "", "comma-separated bpworker addresses (host:port,...) to shard units across (empty = in-process)")
		winflight   = flag.Int("worker-inflight", 0, "concurrent units dispatched per remote worker (0 = default 4)")
		serial      = flag.Bool("serial", false, "render experiments one at a time (same output, for timing comparisons)")
		batch       = flag.Bool("batch", false, "pre-plan the whole study sweep as one deduplicated unit DAG before rendering (same output)")
		list        = flag.Bool("list", false, "list experiments and exit")
		cacheDir    = flag.String("cache-dir", "", "persistent cache directory shared across invocations (empty = memory only)")
		cacheMax    = flag.Int64("cache-max-bytes", 0, "persistent cache size bound in bytes (0 = unbounded)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-9s %s\n", e.Name, e.Description)
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

	// -unit-workers is one total budget, split between the two levels of
	// parallelism: `width` experiments render concurrently and each study
	// inside them fans units across `budget/width` workers, so the product
	// stays ≈ the budget instead of squaring it. A single experiment gets
	// the whole budget for its per-study units.
	budget := *unitWorkers
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	width := budget
	if width > len(selected) {
		width = len(selected)
	}
	if *serial {
		width = 1
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed
	if *runs > 0 {
		cfg.Runs = *runs
	}
	cfg.Workers = budget / width
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

	if *batch {
		// Batch mode: compile the full evaluation sweep into one
		// deduplicated unit DAG and execute it up front, so the renderers
		// below hit the cache for every study. Output is unchanged — the
		// batch plan feeds the same whole-study cache entries.
		specs := runner.Config().StudySpecs()
		t0 := time.Now()
		if _, stats, err := runner.BatchStudies(specs); err != nil {
			fmt.Fprintln(os.Stderr, "bpexperiments:", err)
			if cerr := runner.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "bpexperiments: closing cache:", cerr)
			}
			os.Exit(1)
		} else {
			fmt.Fprintf(os.Stderr, "[batch: %d studies planned as %d units (%d naive, %d deduped, %d subsumed) in %v]\n",
				stats.Studies, stats.PlannedUnits, stats.NaiveUnits, stats.DedupedUnits,
				stats.SubsumedUnits, time.Since(t0).Round(time.Millisecond))
		}
	}

	// Experiments render into per-experiment buffers so they can run
	// concurrently without interleaving; each experiment's output is
	// printed whole once it and every lower-indexed experiment have
	// finished. The bytes match the old serial loop exactly, but appear
	// per completed experiment rather than line by line.
	outs := make([]bytes.Buffer, len(selected))
	took := make([]time.Duration, len(selected))
	var (
		mu   sync.Mutex
		done = make([]bool, len(selected))
		next int
	)
	flush := func() { // caller holds mu
		for next < len(selected) && done[next] {
			os.Stdout.Write(outs[next].Bytes())
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n",
				selected[next].Name, took[next].Round(time.Millisecond))
			next++
		}
	}
	start := time.Now()
	err = sched.ForEach(context.Background(), len(selected), width,
		func(ctx context.Context, i int) error {
			t0 := time.Now()
			if err := selected[i].Run(runner, &outs[i]); err != nil {
				return fmt.Errorf("%s: %w", selected[i].Name, err)
			}
			mu.Lock()
			took[i] = time.Since(t0)
			done[i] = true
			flush()
			mu.Unlock()
			return nil
		})
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
