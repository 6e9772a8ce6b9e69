package sched

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// countingExecutor wraps an Executor, recording every unit kind it
// resolves. It proves Run, sweeps and Collect decompose entirely onto the
// Executor interface: if any compute path bypassed it, the counts would
// come up short.
type countingExecutor struct {
	inner Executor
	mu    sync.Mutex
	kinds map[UnitKind]int
}

func (c *countingExecutor) ExecuteUnit(ctx context.Context, req UnitRequest) (any, error) {
	c.mu.Lock()
	if c.kinds == nil {
		c.kinds = make(map[UnitKind]int)
	}
	c.kinds[req.Kind]++
	c.mu.Unlock()
	return c.inner.ExecuteUnit(ctx, req)
}

// TestRunDecomposesOntoExecutor: every unit of a study flows through the
// pluggable executor, and the result is identical to the default path.
func TestRunDecomposesOntoExecutor(t *testing.T) {
	req := testRequest(t)
	want, err := Run(context.Background(), req, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ce := &countingExecutor{inner: &LocalExecutor{}}
	got, err := Run(context.Background(), req, Options{Workers: 4, Executor: ce})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("custom executor diverges from the default local path")
	}
	runs := req.Config.WithDefaults().Runs
	wantKinds := map[UnitKind]int{
		UnitDiscoverBaseline: 1,
		UnitDiscoverJittered: runs - 1,
		UnitCollect:          2,
	}
	ce.mu.Lock()
	defer ce.mu.Unlock()
	if !reflect.DeepEqual(ce.kinds, wantKinds) {
		t.Errorf("unit kinds routed through the executor = %v, want %v", ce.kinds, wantKinds)
	}
}

// TestLocalExecutorFingerprintGuard: a wire-path request whose
// fingerprint does not match the program this process resolves for the
// app name is refused, not silently computed against the wrong program.
func TestLocalExecutorFingerprintGuard(t *testing.T) {
	req := testRequest(t)
	discCfg := req.Config.WithDefaults().Discovery()
	worker := &LocalExecutor{}
	_, err := worker.ExecuteUnit(context.Background(), UnitRequest{
		Kind: UnitDiscoverBaseline, App: req.App, FP: "not-the-real-fingerprint",
		Discovery: &discCfg,
	})
	if !errors.Is(err, ErrFingerprintMismatch) {
		t.Errorf("want ErrFingerprintMismatch, got %v", err)
	}
}

// TestLocalExecutorUnknownUnit: malformed requests fail with a
// description, not a panic.
func TestLocalExecutorUnknownUnit(t *testing.T) {
	worker := &LocalExecutor{}
	if _, err := worker.ExecuteUnit(context.Background(), UnitRequest{Kind: "frobnicate", App: "MCB"}); err == nil {
		t.Error("unknown unit kind must error")
	}
	if _, err := worker.ExecuteUnit(context.Background(), UnitRequest{Kind: UnitCollect, App: "MCB"}); err == nil {
		t.Error("collect unit without a configuration must error")
	}
}

// failingExecutor fails every unit after the first n.
type failingExecutor struct {
	inner Executor
	n     int32
	count atomic.Int32
}

func (f *failingExecutor) ExecuteUnit(ctx context.Context, req UnitRequest) (any, error) {
	if f.count.Add(1) > f.n {
		return nil, errors.New("executor backend lost")
	}
	return f.inner.ExecuteUnit(ctx, req)
}

// TestRunSurfacesExecutorFailure: an executor failing mid-study fails the
// study with the backend's error rather than hanging or asserting.
func TestRunSurfacesExecutorFailure(t *testing.T) {
	req := testRequest(t)
	fe := &failingExecutor{inner: &LocalExecutor{}, n: 2}
	_, err := Run(context.Background(), req, Options{Workers: 2, Executor: fe})
	if err == nil || !errors.Is(err, context.Canceled) && err.Error() == "" {
		t.Fatalf("want backend error, got %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("backend failure must not surface as cancellation: %v", err)
	}
}

// TestUnitRequestKeyStability: unit keys must match the keys the local
// cache has always used, so a distributed fleet sharing a cachestore
// directory dedupes against artifacts written by earlier local runs.
func TestUnitRequestKeyStability(t *testing.T) {
	req := testRequest(t)
	cfg := req.Config.WithDefaults()
	discCfg := cfg.Discovery()
	colCfgs := cfg.Collections()

	ur := UnitRequest{Kind: UnitDiscoverBaseline, App: req.App, FP: "fp", Discovery: &discCfg}
	key, err := ur.Key()
	if err != nil {
		t.Fatal(err)
	}
	if want := discKey("discover", "fp", discCfg.WithDefaults(), 0); key != want {
		t.Errorf("baseline unit key %s != cache key %s", key, want)
	}

	ur = UnitRequest{Kind: UnitDiscoverJittered, App: req.App, FP: "fp", Discovery: &discCfg, Run: 3}
	if key, err = ur.Key(); err != nil {
		t.Fatal(err)
	}
	if want := discKey("discover", "fp", discCfg.WithDefaults(), 3); key != want {
		t.Errorf("jittered unit key %s != cache key %s", key, want)
	}

	ur = UnitRequest{Kind: UnitCollect, App: req.App, FP: "fp", Collect: &colCfgs[0]}
	if key, err = ur.Key(); err != nil {
		t.Fatal(err)
	}
	if want := collectKey("fp", colCfgs[0]); key != want {
		t.Errorf("collect unit key %s != cache key %s", key, want)
	}
}
