package sched

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/resultcache"
	"barrierpoint/internal/trace"
)

func testRequest(t *testing.T) StudyRequest {
	t.Helper()
	a, err := apps.ByName("MCB")
	if err != nil {
		t.Fatal(err)
	}
	return StudyRequest{
		App:   "MCB",
		Build: a.Build,
		Config: core.StudyConfig{
			Threads: 2, Runs: 4, Reps: 5, Seed: 41,
		},
	}
}

// TestRunDeterministicAcrossWorkerCounts is the subsystem's core
// guarantee: the worker count must not leak into the result.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	req := testRequest(t)
	serial, err := Run(context.Background(), req, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		parallel, err := Run(context.Background(), req, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("Workers:1 and Workers:%d disagree on the StudyResult", workers)
		}
	}
}

// TestRunMatchesSerialReference pins the scheduler to core.RunStudy: both
// compose the same per-unit primitives, so their results must be
// indistinguishable.
func TestRunMatchesSerialReference(t *testing.T) {
	req := testRequest(t)
	want, err := core.RunStudy(req.App, req.Build, req.Config)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), req, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("sched.Run diverges from the serial core.RunStudy reference")
	}
}

// TestDiscoverMatchesCoreDiscover pins sched.Discover to the serial
// core.Discover at several worker counts, with and without a cache, and
// its progress to end at Runs/Runs.
func TestDiscoverMatchesCoreDiscover(t *testing.T) {
	base := testRequest(t)
	req := DiscoverRequest{App: base.App, Build: base.Build, Config: base.Config.Discovery()}
	want, err := core.Discover(req.Build, req.Config)
	if err != nil {
		t.Fatal(err)
	}
	runs := req.Config.WithDefaults().Runs
	for _, workers := range []int{1, 2, 8} {
		for _, cache := range []*resultcache.Cache{nil, resultcache.New(64)} {
			var mu sync.Mutex
			var last [2]int
			got, err := Discover(context.Background(), req, Options{Workers: workers, Cache: cache,
				Progress: func(done, total int) {
					mu.Lock()
					if done > last[0] {
						last = [2]int{done, total}
					}
					mu.Unlock()
				}})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("Workers:%d cache:%v: sched.Discover diverges from core.Discover", workers, cache != nil)
			}
			if last != [2]int{runs, runs} {
				t.Errorf("Workers:%d cache:%v: progress ended at %d/%d, want %d/%d",
					workers, cache != nil, last[0], last[1], runs, runs)
			}
		}
	}
}

// jitterFirstExecutor holds every collect unit until a jittered discovery
// unit has started, and fails the collection if none starts within 10 s.
type jitterFirstExecutor struct {
	inner    Executor
	once     sync.Once
	jittered chan struct{}
}

func (e *jitterFirstExecutor) ExecuteUnit(ctx context.Context, req UnitRequest) (any, error) {
	switch req.Kind {
	case UnitDiscoverJittered:
		e.once.Do(func() { close(e.jittered) })
	case UnitCollect:
		select {
		case <-e.jittered:
		case <-time.After(10 * time.Second):
			return nil, errors.New("no jittered discovery run started within 10s of a collection")
		}
	}
	return e.inner.ExecuteUnit(ctx, req)
}

// TestRunReleasesJitteredBeforeCollections: a jittered discovery run
// needs only the baseline, so it starts while both collections are still
// running. At Workers:3 the baseline and both collections start at once
// and the collections wait for a jittered run; a pipeline that barriers
// the jittered runs behind the collections would time them out.
func TestRunReleasesJitteredBeforeCollections(t *testing.T) {
	req := testRequest(t)
	want, err := core.RunStudy(req.App, req.Build, req.Config)
	if err != nil {
		t.Fatal(err)
	}
	e := &jitterFirstExecutor{inner: &LocalExecutor{}, jittered: make(chan struct{})}
	got, err := Run(context.Background(), req, Options{Workers: 3, Executor: e})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("sched.Run diverges from the serial core.RunStudy reference")
	}
}

var (
	errSlowBaseline = errors.New("baseline failed after 50ms")
	errARMCollect   = errors.New("ARMv8 collection failed at once")
)

// precedenceExecutor fails one app's baseline after 50 ms and its ARMv8
// collection at once; every other unit runs normally.
type precedenceExecutor struct {
	inner Executor
	app   string
}

func (e *precedenceExecutor) ExecuteUnit(ctx context.Context, req UnitRequest) (any, error) {
	if req.App == e.app {
		switch {
		case req.Kind == UnitDiscoverBaseline:
			time.Sleep(50 * time.Millisecond)
			return nil, errSlowBaseline
		case req.Kind == UnitCollect && req.Collect.Variant.ISA.Name == isa.ARMv8().Name:
			return nil, errARMCollect
		}
	}
	return e.inner.ExecuteUnit(ctx, req)
}

// TestRunErrorPrecedence: a study whose ARMv8 collection fails first and
// whose baseline fails later reports the baseline's error — the unit a
// serial loop fails on first — at every worker count, and the same study
// as a sweep member reports the same error beside a healthy sibling.
func TestRunErrorPrecedence(t *testing.T) {
	req := testRequest(t)
	pe := &precedenceExecutor{inner: &LocalExecutor{}, app: req.App}
	var runErr error
	for _, workers := range []int{1, 2, 3, 8} {
		for i := 0; i < 5; i++ {
			_, runErr = Run(context.Background(), req, Options{Workers: workers, Executor: pe})
			if !errors.Is(runErr, errSlowBaseline) {
				t.Fatalf("Workers:%d attempt %d: err = %v, want the baseline's error", workers, i, runErr)
			}
		}
	}

	healthy := sweepRequest(t, "CoMD", 2, 2, 3)
	plan, err := CompileSweep(context.Background(), []StudyRequest{req, healthy},
		Options{Workers: 2, Executor: pe})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := plan.Execute(context.Background(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err == nil || outs[0].Err.Error() != runErr.Error() {
		t.Errorf("failing sweep member err = %v, want Run's %v", outs[0].Err, runErr)
	}
	if outs[1].Err != nil {
		t.Errorf("healthy sibling failed: %v", outs[1].Err)
	}
}

func TestRunCachesIntermediatesAndStudies(t *testing.T) {
	req := testRequest(t)
	cache := resultcache.New(128)
	opts := Options{Workers: 4, Cache: cache}

	first, err := Run(context.Background(), req, opts)
	if err != nil {
		t.Fatal(err)
	}
	cold := cache.Stats()
	if cold.Misses == 0 || cold.Puts == 0 {
		t.Fatalf("first run should populate the cache: %+v", cold)
	}

	second, err := Run(context.Background(), req, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm := cache.Stats()
	if warm.Hits <= cold.Hits {
		t.Errorf("repeated run should hit the cache: cold %+v warm %+v", cold, warm)
	}
	if warm.Misses != cold.Misses {
		t.Errorf("repeated run should add no misses: cold %+v warm %+v", cold, warm)
	}
	if first != second {
		t.Error("whole-study cache hit should return the memoised result")
	}

	// An overlapping study — same seed and collections, more discovery
	// runs — must reuse the shared intermediates.
	bigger := req
	bigger.Config.Runs = 6
	if _, err := Run(context.Background(), bigger, opts); err != nil {
		t.Fatal(err)
	}
	overlap := cache.Stats()
	// Collections and the discovery baseline are shared; only the extra
	// jittered runs and the new study key should miss.
	if overlap.Hits <= warm.Hits {
		t.Errorf("overlapping study should share intermediates: %+v", overlap)
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, testRequest(t), Options{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

func TestRunPropagatesBuildError(t *testing.T) {
	boom := errors.New("broken builder")
	req := StudyRequest{
		App: "broken",
		Build: func(threads int, v isa.Variant) (*trace.Program, error) {
			return nil, boom
		},
		Config: core.StudyConfig{Threads: 2, Runs: 2, Reps: 2},
	}
	if _, err := Run(context.Background(), req, Options{Workers: 4}); !errors.Is(err, boom) {
		t.Errorf("want builder error, got %v", err)
	}
}

func TestCollectNilVariantErrors(t *testing.T) {
	a, err := apps.ByName("MCB")
	if err != nil {
		t.Fatal(err)
	}
	req := CollectRequest{App: "MCB", Build: a.Build,
		Config: core.CollectConfig{Threads: 2}}
	if _, err := Collect(context.Background(), req, Options{}); err == nil {
		t.Error("zero-variant collection must error, not panic")
	}
	if _, err := Collect(context.Background(), req, Options{Cache: resultcache.New(8)}); err == nil {
		t.Error("zero-variant collection with cache must error, not panic")
	}
}

func TestRunNilBuilder(t *testing.T) {
	if _, err := Run(context.Background(), StudyRequest{App: "x"}, Options{}); err == nil {
		t.Error("nil builder must error")
	}
}

func TestFanOutOrderIndependence(t *testing.T) {
	got := make([]int, 64)
	err := ForEach(context.Background(), len(got), 7, func(ctx context.Context, i int) error {
		got[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d holds %d", i, v)
		}
	}
}

// TestFanOutRealErrorBeatsCollateralCancellation reproduces a nested
// fan-out's shape: a long-running unit 0 that reports context.Canceled
// once a sibling fails must not mask the sibling's real error, even
// though it has the lower index.
func TestFanOutRealErrorBeatsCollateralCancellation(t *testing.T) {
	boom := errors.New("collection failed")
	err := ForEach(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		if i == 1 {
			return boom
		}
		<-ctx.Done() // unit 0 winds down only after unit 1's failure cancels
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Errorf("collateral cancellation masked the real error: got %v", err)
	}
}

// TestRunReportsProgress pins the progress contract: with one worker the
// callback sees every count 1..total in order, total equals StudyUnits,
// and the last report is total/total.
func TestRunReportsProgress(t *testing.T) {
	req := testRequest(t)
	wantTotal := StudyUnits(req.Config)
	var got []int
	opts := Options{Workers: 1, Progress: func(done, total int) {
		if total != wantTotal {
			t.Errorf("progress total = %d, want %d", total, wantTotal)
		}
		got = append(got, done)
	}}
	if _, err := Run(context.Background(), req, opts); err != nil {
		t.Fatal(err)
	}
	if len(got) != wantTotal {
		t.Fatalf("got %d progress reports, want %d: %v", len(got), wantTotal, got)
	}
	for i, d := range got {
		if d != i+1 {
			t.Fatalf("report %d carries done=%d, want %d (units must count up one by one)", i, d, i+1)
		}
	}
}

// TestRunCachedStudyReportsFullProgress: a whole-study cache hit skips
// every unit, so progress must jump straight to total/total rather than
// staying silent.
func TestRunCachedStudyReportsFullProgress(t *testing.T) {
	req := testRequest(t)
	cache := resultcache.New(128)
	if _, err := Run(context.Background(), req, Options{Workers: 4, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	var reports [][2]int
	_, err := Run(context.Background(), req, Options{Workers: 4, Cache: cache,
		Progress: func(done, total int) { reports = append(reports, [2]int{done, total}) }})
	if err != nil {
		t.Fatal(err)
	}
	total := StudyUnits(req.Config)
	if len(reports) != 1 || reports[0] != [2]int{total, total} {
		t.Errorf("cached study should report one %d/%d, got %v", total, total, reports)
	}
}

// TestRunCancelledMidStudy cancels from inside a progress callback, so
// the cancellation lands between units; Run must wind down with
// context.Canceled rather than completing.
func TestRunCancelledMidStudy(t *testing.T) {
	req := testRequest(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Workers: 1, Progress: func(done, total int) {
		if done == 1 {
			cancel()
		}
	}}
	if _, err := Run(ctx, req, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled after mid-study cancel, got %v", err)
	}
}

// TestForEachExternalCancelReturnsCtxErr: a fan-out abandoned by its
// caller reports the context's error, not nil and not a unit error
// manufactured from the cancellation.
func TestForEachExternalCancelReturnsCtxErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	var once sync.Once
	err := ForEach(ctx, 1000, 2, func(ctx context.Context, i int) error {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// TestForEachCancelledUnitsNeverMaskRealError stresses the ordering
// matrix: many units fail with collateral context.Canceled after one
// real failure, at every worker count, and the real error must always
// surface.
func TestForEachCancelledUnitsNeverMaskRealError(t *testing.T) {
	boom := errors.New("unit 7 exploded")
	for _, workers := range []int{1, 2, 4, 16} {
		err := ForEach(context.Background(), 32, workers, func(ctx context.Context, i int) error {
			if i == 7 {
				return boom
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
				return nil
			}
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: collateral cancellations masked the real error: got %v", workers, err)
		}
	}
}

func TestFanOutReportsLowestIndexedError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	// Workers:1 visits units in order, so unit 2's error must win over
	// unit 5's even though both would fail.
	err := ForEach(context.Background(), 8, 1, func(ctx context.Context, i int) error {
		switch i {
		case 2:
			return errA
		case 5:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Errorf("want lowest-indexed error, got %v", err)
	}
}
