package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"barrierpoint/internal/obs"
)

// longStudy is a submission that runs for several seconds (~40+ units on
// one worker), long enough to observe and interrupt mid-flight.
const longStudy = `{"app":"CoMD","threads":8,"runs":20,"reps":100,"seed":11}`

// doDelete issues DELETE /studies/{id} and decodes the response.
func doDelete(t *testing.T, ts *httptest.Server, id string) (JobStatus, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/studies/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// waitState polls until the job reaches the wanted state, failing on any
// other terminal state.
func waitState(t *testing.T, ts *httptest.Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("study %s reached %s while waiting for %s (error: %s)", id, st.State, want, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("study %s did not reach %s in time", id, want)
	return JobStatus{}
}

// TestCancelRunningStudy is the tentpole's acceptance path: a running
// study is cancelled promptly via DELETE, and the progress observed on
// the way is monotonically increasing.
func TestCancelRunningStudy(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, Executors: 1, QueueDepth: 8, CacheSize: 64})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	st := postStudy(t, ts, longStudy)

	// Wait until the study is running and has completed at least one unit,
	// checking progress monotonicity along the way.
	lastDone := 0
	deadline := time.Now().Add(time.Minute)
	for {
		cur := getStatus(t, ts, st.ID)
		if p := cur.Progress; p != nil {
			if p.UnitsDone < lastDone {
				t.Fatalf("progress went backwards: %d after %d", p.UnitsDone, lastDone)
			}
			if p.UnitsTotal <= 0 || p.UnitsDone > p.UnitsTotal {
				t.Fatalf("implausible progress: %+v", p)
			}
			lastDone = p.UnitsDone
			if cur.State == StateRunning && p.UnitsDone >= 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("study never reported progress")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// While running, the report endpoint serves a progress line, not the
	// tables.
	resp, err := http.Get(ts.URL + "/studies/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("report of a running study: status %d, want 409", resp.StatusCode)
	}
	if out := buf.String(); !strings.Contains(out, "is running [") || !strings.Contains(out, "/") {
		t.Errorf("running report should carry a progress line, got %q", out)
	}

	cancelAt := time.Now()
	if _, code := doDelete(t, ts, st.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE on a running study: status %d, want 202", code)
	}
	done := waitState(t, ts, st.ID, StateCancelled)
	if wait := time.Since(cancelAt); wait > 30*time.Second {
		t.Errorf("cancellation took %v, not prompt", wait)
	}
	if done.FinishedAt == nil || done.Error == "" {
		t.Errorf("cancelled study missing finish bookkeeping: %+v", done)
	}

	// Cancel is idempotent; the report now conflicts with "cancelled".
	if _, code := doDelete(t, ts, st.ID); code != http.StatusOK {
		t.Errorf("second DELETE: status %d, want 200", code)
	}
	resp, err = http.Get(ts.URL + "/studies/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("report of a cancelled study: status %d, want 409", resp.StatusCode)
	}
}

// TestCancelQueuedStudy: a job cancelled before an executor claims it is
// terminal immediately and never runs.
func TestCancelQueuedStudy(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, Executors: 1, QueueDepth: 8, CacheSize: 64})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	blocker := postStudy(t, ts, longStudy)
	waitState(t, ts, blocker.ID, StateRunning)

	queued := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":2,"reps":3,"seed":7}`)
	st, code := doDelete(t, ts, queued.ID)
	if code != http.StatusOK || st.State != StateCancelled {
		t.Fatalf("DELETE on a queued study: status %d, state %s; want 200 cancelled", code, st.State)
	}
	if st.StartedAt != nil {
		t.Errorf("cancelled queued study must never start: %+v", st)
	}

	if _, code := doDelete(t, ts, blocker.ID); code != http.StatusAccepted {
		t.Fatalf("cancelling blocker: status %d", code)
	}
	waitState(t, ts, blocker.ID, StateCancelled)

	// Cancelling a done study conflicts.
	small := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":2,"reps":3,"seed":9}`)
	waitDone(t, ts, small.ID)
	if _, code := doDelete(t, ts, small.ID); code != http.StatusConflict {
		t.Errorf("DELETE on a done study: status %d, want 409", code)
	}
}

// TestPriorityOrdering: with one executor busy, queued jobs must start in
// priority order (high first), falling back to submission order within a
// band.
func TestPriorityOrdering(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, Executors: 1, QueueDepth: 8, CacheSize: 64})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	blocker := postStudy(t, ts, longStudy)
	waitState(t, ts, blocker.ID, StateRunning)

	low := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":2,"reps":3,"seed":1,"priority":-5}`)
	mid := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":2,"reps":3,"seed":2}`)
	high := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":2,"reps":3,"seed":3,"priority":5}`)
	if low.Priority != -5 || mid.Priority != 0 || high.Priority != 5 {
		t.Fatalf("effective priorities wrong: %d %d %d", low.Priority, mid.Priority, high.Priority)
	}

	// Free the executor; the three queued jobs must start high, mid, low.
	if _, code := doDelete(t, ts, blocker.ID); code != http.StatusAccepted {
		t.Fatalf("cancelling blocker: status %d", code)
	}
	var lowSt, midSt, highSt JobStatus
	for _, w := range []struct {
		id  string
		out *JobStatus
	}{{high.ID, &highSt}, {mid.ID, &midSt}, {low.ID, &lowSt}} {
		*w.out = waitDone(t, ts, w.id)
	}
	if highSt.StartedAt == nil || midSt.StartedAt == nil || lowSt.StartedAt == nil {
		t.Fatal("missing StartedAt on finished studies")
	}
	if !highSt.StartedAt.Before(*midSt.StartedAt) {
		t.Errorf("priority 5 started %v, after priority 0 at %v", highSt.StartedAt, midSt.StartedAt)
	}
	if !midSt.StartedAt.Before(*lowSt.StartedAt) {
		t.Errorf("priority 0 started %v, after priority -5 at %v", midSt.StartedAt, lowSt.StartedAt)
	}
}

// TestDefaultPriorityBand: submissions that omit the priority inherit the
// server's configured band.
func TestDefaultPriorityBand(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, Executors: 1, QueueDepth: 8, CacheSize: 16, DefaultPriority: 7})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	st := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":2,"reps":3,"seed":1}`)
	if st.Priority != 7 {
		t.Errorf("effective priority = %d, want server default 7", st.Priority)
	}
	explicit := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":2,"reps":3,"seed":2,"priority":-3}`)
	if explicit.Priority != -3 {
		t.Errorf("explicit priority = %d, want -3", explicit.Priority)
	}
	// An explicit zero is a real band, not "unset".
	zero := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":2,"reps":3,"seed":3,"priority":0}`)
	if zero.Priority != 0 {
		t.Errorf("explicit priority 0 = %d, want 0 (must not fall back to the default band)", zero.Priority)
	}
}

// TestDefaultPriorityClamped: an out-of-range server default band is
// clamped to the same ±MaxPriority bound clients are held to, so default
// traffic can never outrank every explicit priority.
func TestDefaultPriorityClamped(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, Executors: 1, QueueDepth: 4, CacheSize: 16, DefaultPriority: 10 * MaxPriority})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	st := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":2,"reps":3,"seed":1}`)
	if st.Priority != MaxPriority {
		t.Errorf("effective priority = %d, want clamp to %d", st.Priority, MaxPriority)
	}
}

// TestPriorityValidation rejects bands beyond ±MaxPriority.
func TestPriorityValidation(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/studies", "application/json",
		strings.NewReader(`{"app":"MCB","threads":2,"priority":101}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range priority: status %d, want 400", resp.StatusCode)
	}
}

// TestSubmitAfterCloseRejected: once Close has run, submissions must be
// rejected with 503 instead of sitting "queued" forever with no executor
// left to run them.
func TestSubmitAfterCloseRejected(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, Executors: 1, QueueDepth: 8, CacheSize: 16})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	s.Close()
	resp, err := http.Post(ts.URL+"/studies", "application/json",
		strings.NewReader(`{"app":"MCB","threads":2,"runs":2,"reps":3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after Close: status %d, want 503", resp.StatusCode)
	}
}

// TestCloseCancelsQueuedJobs: jobs still queued at Close are terminal
// (cancelled) when it returns — not stuck "queued".
func TestCloseCancelsQueuedJobs(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, Executors: 1, QueueDepth: 8, CacheSize: 64})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close() })

	blocker := postStudy(t, ts, longStudy)
	waitState(t, ts, blocker.ID, StateRunning)
	queued := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":2,"reps":3,"seed":4}`)

	s.Close()
	// Both the study that was running and the one still queued were
	// stopped by shutdown, not failed by their own doing.
	for _, id := range []string{blocker.ID, queued.ID} {
		if st := getStatus(t, ts, id); st.State != StateCancelled {
			t.Errorf("study %s is %s after Close, want %s", id, st.State, StateCancelled)
		}
	}
}

// TestConcurrentSubmitCancelClose races submissions, cancellations, and
// shutdown against each other (run under -race via `make test-race`).
// Whatever the interleaving, Close must leave every registered job in a
// terminal state and later submissions rejected.
func TestConcurrentSubmitCancelClose(t *testing.T) {
	s := mustNew(t, Config{Workers: 2, Executors: 2, QueueDepth: 16, CacheSize: 64})

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				pri := i%3 - 1
				st, _, err := s.submit(SubmitRequest{
					App: "MCB", Threads: 2, Runs: 2, Reps: 3,
					Seed: uint64(g*100 + i), Priority: &pri,
				})
				if err != nil {
					continue // queue full or server closed — both expected
				}
				if i%2 == 0 {
					if j, ok := s.lookup(st.ID); ok {
						s.cancelJob(j)
					}
				}
			}
		}(g)
	}
	time.Sleep(30 * time.Millisecond)
	s.Close()
	wg.Wait()

	// Executors are gone and the queue is drained: nothing may be left
	// non-terminal, and new submissions must bounce.
	for _, st := range s.snapshotJobs() {
		if !st.State.terminal() {
			t.Errorf("study %s left %s after Close", st.ID, st.State)
		}
	}
	if _, code, err := s.submit(SubmitRequest{App: "MCB", Threads: 2}); err == nil || code != http.StatusServiceUnavailable {
		t.Errorf("submit after Close: code %d err %v, want 503", code, err)
	}
}

// TestSubmitBurstStartsUnderOwnID: an idle executor may claim a study the
// instant it is queued, so the study's ID must be in place before the
// push, or it starts — and records its trace — under an empty ID. Bursts
// of cached submissions against idle executors keep that window busy;
// each burst fits the tracer's retention, so every study's trace must be
// found under its own ID.
func TestSubmitBurstStartsUnderOwnID(t *testing.T) {
	const bursts, burst = 40, 48
	s := mustNew(t, Config{Workers: 1, Executors: 8, QueueDepth: burst, CacheSize: 64,
		Log: obs.NewLogger(io.Discard, obs.LevelError, 16)})
	t.Cleanup(s.Close)
	req := SubmitRequest{App: "MCB", Threads: 2, Runs: 2, Reps: 2, Seed: 41}
	waitFinished := func(id string) {
		j, ok := s.lookup(id)
		if !ok {
			t.Fatalf("study %s is not registered", id)
		}
		deadline := time.Now().Add(time.Minute)
		for !j.snapshot().State.terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("study %s did not finish in time", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The first study computes the result; every later one is a
	// whole-study cache hit that finishes within milliseconds.
	first, _, err := s.submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitFinished(first.ID)

	missing := 0
	for b := 0; b < bursts; b++ {
		ids := make([]string, burst)
		var wg sync.WaitGroup
		for i := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, _, err := s.submit(req)
				if err != nil {
					t.Error(err)
					return
				}
				ids[i] = st.ID
			}()
		}
		wg.Wait()
		for _, id := range ids {
			if id == "" {
				continue
			}
			waitFinished(id)
			if _, ok := s.tracer.Job(id); !ok {
				missing++
			}
		}
	}
	if missing > 0 {
		t.Errorf("%d of %d studies have no trace under their own ID", missing, bursts*burst)
	}
	if _, ok := s.tracer.Job(""); ok {
		t.Error("a study recorded its trace under the empty ID")
	}
}
