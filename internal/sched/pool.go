// Package sched executes BarrierPoint studies concurrently.
//
// A study decomposes into typed units — the canonical discovery run, the
// jittered re-runs behind it, the per-variant native collections, and
// the per-set validations. CompileSweep plans one or many studies as a
// single dependency DAG of those units, deduplicated by content-addressed
// key, and SweepPlan.Execute releases each unit onto a bounded worker
// pool the moment its dependencies land. Run is a one-member plan and
// Discover a one-member plan of discovery units only, so there is one
// executor for a study and for a sweep. Expensive intermediates are
// memoised through internal/resultcache, and every member assembles in
// deterministic unit order: the same request produces a byte-identical
// core.StudyResult whether it runs on one worker or many, alone or in a
// sweep. A failing member reports its lowest-ranked failing unit in
// planning order, whatever order units finish in.
package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"barrierpoint/internal/resultcache"
)

// Options configure study execution.
type Options struct {
	// Workers bounds the number of units in flight at once; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Cache memoises discovery baselines, barrier point sets, collections
	// and whole studies across Run calls. Nil disables caching.
	Cache *resultcache.Cache
	// Executor resolves the study's unit requests. Nil means a
	// LocalExecutor over Cache — the in-process pool the scheduler has
	// always used. A RemoteExecutor shards units across worker
	// processes instead.
	Executor Executor
	// Metrics, when non-nil, receives per-unit instrumentation (latency
	// histograms by kind, error counts, inflight gauge) for every unit
	// the scheduler executes. Create once per process with NewMetrics.
	Metrics *Metrics
	// Progress, when non-nil, is called after each completed unit of work
	// (a discovery run, a collection, a set validation) with the number of
	// units finished so far and the total for the execution. Calls may
	// arrive from concurrent workers; done values are issued in increasing
	// order but may be *observed* out of order, so consumers that need
	// monotonic display should keep a running maximum. A whole-study cache
	// hit reports total/total once. Progress must not block: it runs on
	// the worker that finished the unit.
	Progress func(done, total int)
}

// executor resolves the effective unit executor.
func (o Options) executor() Executor {
	if o.Executor != nil {
		return o.Executor
	}
	return &LocalExecutor{Cache: o.Cache}
}

// workers resolves the effective worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// indexedErr pairs a unit index (a ForEach index, or a unit's rank in a
// plan member) with its failure, so ForEach and plan members report the
// lowest-indexed error regardless of completion order (the unit a serial
// loop would have failed on first).
type indexedErr struct {
	idx int
	err error
}

// preferErr folds unit idx's failure into the recorded one and returns
// the error to keep. A context.Canceled is collateral damage from a
// cancellation (a nested fan-out winding down, say), not the cause, so it
// never replaces a recorded error, whatever the indexes; any other error
// replaces a recorded cancellation, and otherwise the lower index wins.
func preferErr(first *indexedErr, idx int, err error) *indexedErr {
	if first != nil && (errors.Is(err, context.Canceled) ||
		!errors.Is(first.err, context.Canceled) && idx >= first.idx) {
		return first
	}
	return &indexedErr{idx: idx, err: err}
}

// ForEach runs fn(0) … fn(n-1) with at most `workers` concurrent calls and
// waits for completion. On failure it cancels the remaining units and
// returns the lowest-indexed error; on context cancellation it returns
// ctx.Err(). fn must write its result into caller-owned storage at its
// index — never append — so result order is independent of scheduling.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu    sync.Mutex
		first *indexedErr
	)
	fail := func(i int, err error) {
		mu.Lock()
		first = preferErr(first, i, err)
		mu.Unlock()
		cancel()
	}

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					return
				}
				if err := fn(ctx, i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	if first != nil {
		return first.err
	}
	return ctx.Err()
}
