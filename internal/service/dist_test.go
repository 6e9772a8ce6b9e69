package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/sched"
	"barrierpoint/internal/trace"
)

// testLogger sinks structured events into the test log.
func testLogger(t *testing.T) *obs.Logger {
	return obs.NewLogger(testLogWriter{t}, obs.LevelDebug, 256)
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimSpace(p))
	return len(p), nil
}

// distStudy is the study the distributed tests execute: small enough to
// run several times per test, large enough to exercise every unit kind.
func distStudy(t testing.TB) sched.StudyRequest {
	t.Helper()
	a, err := apps.ByName("MCB")
	if err != nil {
		t.Fatal(err)
	}
	return sched.StudyRequest{
		App:   "MCB",
		Build: a.Build,
		Config: core.StudyConfig{
			Threads: 2, Runs: 3, Reps: 3, Seed: 41,
		},
	}
}

// newTestWorker starts one in-process unit worker.
func newTestWorker(t *testing.T) *httptest.Server {
	t.Helper()
	w, err := NewWorker(WorkerConfig{MaxInflight: 8, CacheSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(func() {
		ts.Close()
		w.Close()
	})
	return ts
}

// reportJSON renders a study result the way GET /studies/{id}/report's
// JSON sibling would: the byte stream the equivalence gate compares.
func reportJSON(t *testing.T, res *core.StudyResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDistributedGoldenEquivalence is the tentpole's acceptance gate: a
// study executed through a RemoteExecutor over two in-process workers
// produces a byte-identical WriteJSON report to the local path, with the
// units really resolved by the fleet.
func TestDistributedGoldenEquivalence(t *testing.T) {
	req := distStudy(t)
	local, err := sched.Run(context.Background(), req, sched.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := newTestWorker(t), newTestWorker(t)
	remote := sched.NewRemoteExecutor([]string{w1.URL, w2.URL}, sched.RemoteOptions{
		Fallback: sched.NoFallback, // any fallback would mask a fleet bug
		Log:      testLogger(t),
	})
	dist, err := sched.Run(context.Background(), req, sched.Options{Workers: 4, Executor: remote})
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(reportJSON(t, local), reportJSON(t, dist)) {
		t.Error("distributed study report differs from the local path")
	}
	st := remote.Stats()
	if st.RemoteUnits == 0 {
		t.Error("no units were resolved remotely")
	}
	if st.LocalFallbacks != 0 {
		t.Errorf("healthy fleet should need no local fallbacks, got %d", st.LocalFallbacks)
	}
	if want := int64(sched.StudyUnits(req.Config)); int64(st.RemoteUnits) != want {
		t.Errorf("fleet resolved %d units, want %d", st.RemoteUnits, want)
	}
	// Units carry their dependency artifacts, so workers never recompute
	// one: the fleet misses each cacheable unit (the baseline, the jittered
	// runs, both collections) exactly once, and validate units touch no
	// cache at all.
	misses := workerHealth(t, w1).Cache.Misses + workerHealth(t, w2).Cache.Misses
	if want := uint64(req.Config.WithDefaults().Runs + 2); misses != want {
		t.Errorf("workers missed their caches %d times, want one per cacheable unit (%d)", misses, want)
	}
}

// workerHealth reads a worker's GET /healthz body.
func workerHealth(t *testing.T, w *httptest.Server) WorkerHealth {
	t.Helper()
	resp, err := http.Get(w.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h WorkerHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestDistributedWorkerDiesMidStudy kills one of two workers partway
// through a study (dropped connections, then a closed listener): the
// retry must land the failed units on the surviving worker and the study
// must still complete with a byte-identical report.
func TestDistributedWorkerDiesMidStudy(t *testing.T) {
	req := distStudy(t)
	local, err := sched.Run(context.Background(), req, sched.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	healthy := newTestWorker(t)
	dyingWorker, err := NewWorker(WorkerConfig{MaxInflight: 8, CacheSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dyingWorker.Close() })
	var served atomic.Int32
	inner := dyingWorker.Handler()
	dying := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 2 {
			// The worker process dies mid-unit: the connection drops with
			// no response written.
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(rw, r)
	}))
	t.Cleanup(dying.Close)

	remote := sched.NewRemoteExecutor([]string{dying.URL, healthy.URL}, sched.RemoteOptions{
		Fallback: sched.NoFallback, // retries alone must complete the study
		Backoff:  time.Minute,      // once quarantined, stay dead for the test
		Log:      testLogger(t),
	})
	dist, err := sched.Run(context.Background(), req, sched.Options{Workers: 2, Executor: remote})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, local), reportJSON(t, dist)) {
		t.Error("report after mid-study worker death differs from the local path")
	}
	st := remote.Stats()
	if int32(served.Load()) > 2 && st.Retries == 0 {
		t.Error("dispatches failed on the dying worker but no retries were recorded")
	}
}

// TestDistributedAllWorkersDown: with the whole fleet unreachable, the
// executor falls back to local execution and the study still completes
// correctly.
func TestDistributedAllWorkersDown(t *testing.T) {
	req := distStudy(t)
	local, err := sched.Run(context.Background(), req, sched.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	// A listener that is already closed: connections are refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	remote := sched.NewRemoteExecutor([]string{deadURL}, sched.RemoteOptions{Log: testLogger(t)})
	dist, err := sched.Run(context.Background(), req, sched.Options{Workers: 4, Executor: remote})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, local), reportJSON(t, dist)) {
		t.Error("local-fallback report differs from the local path")
	}
	st := remote.Stats()
	if st.LocalFallbacks == 0 {
		t.Error("dead fleet should have forced local fallbacks")
	}
	if st.RemoteUnits != 0 {
		t.Errorf("dead fleet cannot have resolved units, got %d", st.RemoteUnits)
	}
	if len(st.Workers) != 1 || st.Workers[0].Healthy {
		t.Errorf("dead worker should be quarantined: %+v", st.Workers)
	}
}

// TestDistributedCancellationPropagates: cancelling the coordinator's
// context aborts an in-flight remote unit promptly — the dispatch does
// not wait out a stuck worker.
func TestDistributedCancellationPropagates(t *testing.T) {
	// A worker that accepts the unit (reads the request) and then wedges.
	// Reading the body first matters: it is what arms the server's client-
	// disconnect detection, exactly as the real worker's JSON decode does.
	release := make(chan struct{})
	stuck := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(func() {
		close(release)
		stuck.Close()
	})

	remote := sched.NewRemoteExecutor([]string{stuck.URL}, sched.RemoteOptions{Log: testLogger(t)})
	colCfg := core.CollectConfig{
		Variant: isa.Variant{ISA: isa.X8664()}, Threads: 2, Reps: 2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := remote.ExecuteUnit(ctx, sched.UnitRequest{
		Kind: sched.UnitCollect, App: "MCB", Collect: &colCfg,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from cancelled remote unit, got %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("cancellation took %v to propagate", took)
	}
}

// TestDistributedDeleteAbortsInflightUnit: DELETE on a running lone study
// stops its sweep (every member is cancelled), which cancels the sweep's
// context, so a unit wedged on a remote worker is abandoned at once — the
// worker sees its request cancelled — instead of holding the study and
// its executor until the worker answers.
func TestDistributedDeleteAbortsInflightUnit(t *testing.T) {
	// The only worker reads each unit, then blocks until the request's
	// context ends.
	received := make(chan struct{}, 1)
	aborted := make(chan struct{})
	var abortOnce sync.Once
	release := make(chan struct{})
	stuck := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case received <- struct{}{}:
		default:
		}
		select {
		case <-r.Context().Done():
			abortOnce.Do(func() { close(aborted) })
		case <-release:
		}
	}))
	t.Cleanup(func() {
		close(release)
		stuck.Close()
	})
	s := mustNew(t, Config{
		Workers: 2, Executors: 1, QueueDepth: 8, CacheSize: 64,
		WorkerURLs: []string{stuck.URL},
		Log:        testLogger(t),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	st := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":3,"reps":3,"seed":41}`)
	waitState(t, ts, st.ID, StateRunning)
	select {
	case <-received:
	case <-time.After(time.Minute):
		t.Fatal("the worker never received a unit")
	}
	if _, code := doDelete(t, ts, st.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE on a running study: status %d, want 202", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for getStatus(t, ts, st.ID).State != StateCancelled {
		if time.Now().After(deadline) {
			t.Fatal("study did not read cancelled within 5s of its DELETE")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case <-aborted:
	case <-time.After(time.Until(deadline)):
		t.Fatal("the worker did not see its in-flight request cancelled within 5s of the DELETE")
	}
}

// TestDistributedFingerprintMismatchFallsBack: a study over a custom
// builder that shadows a registry app cannot run on the fleet (the
// worker's program differs); the fingerprint guard must reject it and
// the fallback must compute the right result — not the registry app's.
func TestDistributedFingerprintMismatchFallsBack(t *testing.T) {
	other, err := apps.ByName("CoMD")
	if err != nil {
		t.Fatal(err)
	}
	// A builder that is NOT the registry MCB: it builds a different
	// program under MCB's name, as a test harness or experiment override
	// would. Executing it on the fleet's registry MCB would be wrong.
	custom := func(threads int, v isa.Variant) (*trace.Program, error) {
		return other.Build(threads, v)
	}
	req := sched.StudyRequest{
		App: "MCB", Build: custom,
		Config: core.StudyConfig{Threads: 2, Runs: 2, Reps: 2, Seed: 7},
	}
	local, err := sched.Run(context.Background(), req, sched.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	w := newTestWorker(t)
	remote := sched.NewRemoteExecutor([]string{w.URL}, sched.RemoteOptions{Log: testLogger(t)})
	dist, err := sched.Run(context.Background(), req, sched.Options{Workers: 2, Executor: remote})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON(t, local), reportJSON(t, dist)) {
		t.Error("custom-builder study computed remotely differs — the fingerprint guard failed")
	}
	st := remote.Stats()
	if st.RemoteUnits != 0 {
		t.Errorf("fleet must reject a custom builder's units, yet resolved %d", st.RemoteUnits)
	}
	if st.LocalFallbacks == 0 {
		t.Error("rejected units should have fallen back locally")
	}
}

// TestDistributedServerEndToEnd drives the whole coordinator: a Server
// configured with WorkerURLs serves a submitted study through the fleet,
// and /healthz reports the distributed dispatch state.
func TestDistributedServerEndToEnd(t *testing.T) {
	w1, w2 := newTestWorker(t), newTestWorker(t)
	s := mustNew(t, Config{
		Workers: 4, Executors: 1, QueueDepth: 8, CacheSize: 64,
		WorkerURLs: []string{w1.URL, w2.URL},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	st := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":3,"reps":3,"seed":41}`)
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) && !getStatus(t, ts, st.ID).State.terminal() {
		time.Sleep(20 * time.Millisecond)
	}
	final := getStatus(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("distributed study ended %s (error: %s)", final.State, final.Error)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Distributed == nil {
		t.Fatal("healthz must report distributed state when a fleet is configured")
	}
	if len(h.Distributed.Workers) != 2 {
		t.Fatalf("healthz reports %d workers, want 2", len(h.Distributed.Workers))
	}
	if h.Distributed.RemoteUnits == 0 {
		t.Error("healthz reports no remotely resolved units after a distributed study")
	}
	for _, wh := range h.Distributed.Workers {
		if !wh.Healthy {
			t.Errorf("worker %s unexpectedly unhealthy", wh.URL)
		}
		if !strings.HasPrefix(wh.URL, "http://") {
			t.Errorf("worker URL %q not normalised", wh.URL)
		}
	}
}

// TestDistributedTracePropagation asserts a two-worker study's trace
// renders ONE seamless tree: each worker's span subtree (recv with
// decode/compute/encode children) is grafted under the dispatch span
// that sent the unit, with every grafted timestamp re-based into its
// parent's window — no negative durations, no child escaping its
// parent. It also exercises the /debug/events tail for the same job.
func TestDistributedTracePropagation(t *testing.T) {
	w1, w2 := newTestWorker(t), newTestWorker(t)
	s := mustNew(t, Config{
		Workers: 4, Executors: 1, QueueDepth: 8, CacheSize: 64,
		WorkerURLs: []string{w1.URL, w2.URL},
		Log:        testLogger(t),
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	st := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":3,"reps":3,"seed":41}`)
	waitDone(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/studies/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr obs.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 1 {
		t.Fatalf("trace roots = %d, want one seamless tree", len(tr.Spans))
	}

	// Inside a dispatch span everything is grafted from the worker:
	// containment must hold at every level after re-basing.
	var checkGrafted func(parent *obs.SpanNode, ns []*obs.SpanNode)
	checkGrafted = func(parent *obs.SpanNode, ns []*obs.SpanNode) {
		for _, n := range ns {
			if n.DurUS < 0 {
				t.Errorf("grafted span %s has negative duration %dus", n.Name, n.DurUS)
			}
			if n.StartUS < parent.StartUS || n.StartUS+n.DurUS > parent.StartUS+parent.DurUS {
				t.Errorf("grafted span %s [%d,%d]us escapes its parent %s [%d,%d]us",
					n.Name, n.StartUS, n.StartUS+n.DurUS,
					parent.Name, parent.StartUS, parent.StartUS+parent.DurUS)
			}
			checkGrafted(n, n.Children)
		}
	}
	workerSpans := map[string]int{}
	var walk func(ns []*obs.SpanNode)
	walk = func(ns []*obs.SpanNode) {
		for _, n := range ns {
			if n.Name == "dispatch" {
				if len(n.Children) == 0 {
					t.Error("dispatch span has no grafted worker subtree")
				}
				for _, c := range n.Children {
					if c.Name != "recv" {
						t.Errorf("dispatch child = %q, want the worker's recv root", c.Name)
					}
				}
				checkGrafted(n, n.Children)
			}
			workerSpans[n.Name]++
			walk(n.Children)
		}
	}
	walk(tr.Spans)
	for _, name := range []string{"dispatch", "recv", "decode", "compute", "encode"} {
		if workerSpans[name] == 0 {
			t.Errorf("no %s spans in the merged trace", name)
		}
	}
	if workerSpans["recv"] != workerSpans["dispatch"] {
		t.Errorf("recv spans = %d, dispatch spans = %d; every dispatch should carry one worker subtree",
			workerSpans["recv"], workerSpans["dispatch"])
	}

	// The same job's structured events are tailable over /debug/events.
	eresp, err := http.Get(ts.URL + "/debug/events?job=" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/events = %d", eresp.StatusCode)
	}
	if ct := eresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content-type = %q", ct)
	}
	var transitions int
	dec := json.NewDecoder(eresp.Body)
	for dec.More() {
		var ev obs.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("bad event line: %v", err)
		}
		if ev.Job != st.ID {
			t.Errorf("event for job %q leaked through the job filter: %+v", ev.Job, ev)
		}
		if ev.Msg == "study transition" {
			transitions++
		}
	}
	// queued -> running -> done.
	if transitions < 3 {
		t.Errorf("study transition events = %d, want at least 3", transitions)
	}
}

// TestWorkerHealthz: the worker's own health endpoint reports its
// capacity and cache counters.
func TestWorkerHealthz(t *testing.T) {
	h := workerHealth(t, newTestWorker(t))
	if h.Status != "ok" || h.MaxInflight != 8 {
		t.Errorf("worker health = %+v", h)
	}
}

// TestWorkerRejectsGarbage: protocol-level rejections carry the right
// status codes (the coordinator's retry logic keys off them). A unit
// without its dependency artifacts is one of them: workers never
// recompute a dependency.
func TestWorkerRejectsGarbage(t *testing.T) {
	w := newTestWorker(t)
	u := newWireUnits(t)
	without := func(req sched.UnitRequest, deps ...sched.InlineArtifact) io.Reader {
		req.Deps = deps
		return bytes.NewReader(unitBody(t, req))
	}
	// A body that would run (the jittered unit) behind more leading
	// whitespace than maxUnitBytes, streamed so the test holds none of it.
	overLimit := io.MultiReader(io.LimitReader(spaces{}, maxUnitBytes), bytes.NewReader(unitBody(t, u.jittered)))
	for _, tc := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"bad JSON", strings.NewReader("{"), sched.StatusUnitRejected},
		{"unknown app", strings.NewReader(`{"kind":"collect","app":"nope"}`), sched.StatusUnitRejected},
		{"unknown kind", strings.NewReader(`{"kind":"frobnicate","app":"MCB"}`), sched.StatusUnitRejected},
		{"missing config", strings.NewReader(`{"kind":"collect","app":"MCB"}`), sched.StatusUnitRejected},
		{"over-limit body", overLimit, sched.StatusUnitRejected},
		{"validate without deps", without(u.validate), sched.StatusUnitRejected},
		{"jittered without deps", without(u.jittered), sched.StatusUnitRejected},
		{"validate with one dep", without(u.validate, u.validate.Deps[0]), sched.StatusUnitRejected},
		{"jittered with a set for a baseline", without(u.jittered, u.validate.Deps[0]), sched.StatusUnitRejected},
		{"baseline of 2^32 rows of 2^32", bytes.NewReader(unitBody(t, u.hugeBaseline)), sched.StatusUnitRejected},
	} {
		resp, err := http.Post(w.URL+"/units", "application/json", tc.body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// spaces is an endless stream of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}
