package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// mustNew builds a Server or fails the test (New is only fallible when a
// cache directory is configured).
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := mustNew(t, Config{Workers: 4, Executors: 2, QueueDepth: 8, CacheSize: 64})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postStudy(t *testing.T, ts *httptest.Server, body string) JobStatus {
	t.Helper()
	resp, err := http.Post(ts.URL+"/studies", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, buf.String())
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/studies/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		switch st.State {
		case StateDone:
			return st
		case StateFailed:
			t.Fatalf("study %s failed: %s", id, st.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("study %s did not finish in time", id)
	return JobStatus{}
}

func getHealth(t *testing.T, ts *httptest.Server) Health {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestSubmitPollReportRoundTrip drives the full API cycle the service
// exists for, then re-submits the same study and checks the cache
// absorbed the repeat.
func TestSubmitPollReportRoundTrip(t *testing.T) {
	// The only executor is held by a running blocker, so the submission
	// is still queued when its 202 reply is built: an idle executor could
	// otherwise start it between the enqueue and the reply's snapshot.
	s := mustNew(t, Config{Workers: 4, Executors: 1, QueueDepth: 8, CacheSize: 64})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	blocker := postStudy(t, ts, longStudy)
	waitState(t, ts, blocker.ID, StateRunning)
	body := `{"app":"MCB","threads":2,"runs":3,"reps":5,"seed":11}`

	st := postStudy(t, ts, body)
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("unexpected initial status: %+v", st)
	}
	if _, code := doDelete(t, ts, blocker.ID); code != http.StatusAccepted {
		t.Fatalf("cancelling blocker: status %d", code)
	}

	done := waitDone(t, ts, st.ID)
	if done.Summary == nil || done.Summary.App != "MCB" || done.Summary.Threads != 2 {
		t.Fatalf("done status missing summary: %+v", done)
	}
	if done.StartedAt == nil || done.FinishedAt == nil {
		t.Errorf("done status missing timestamps: %+v", done)
	}

	resp, err := http.Get(fmt.Sprintf("%s/studies/%s/report", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d: %s", resp.StatusCode, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"BarrierPoint study: MCB", "Discovery runs", "selected barrier points", "Speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// A repeated submission must complete from cache: hits recorded, no
	// recomputation misses beyond the first run's.
	before := getHealth(t, ts).Cache
	st2 := postStudy(t, ts, body)
	waitDone(t, ts, st2.ID)
	after := getHealth(t, ts).Cache
	if after.Hits <= before.Hits {
		t.Errorf("repeated submission should record cache hits: before %+v after %+v", before, after)
	}
	if after.Misses != before.Misses {
		t.Errorf("repeated submission should not recompute: before %+v after %+v", before, after)
	}

	if h := getHealth(t, ts); h.Status != "ok" || h.Jobs[StateDone] != 2 {
		t.Errorf("health after two studies: %+v", h)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"app":"nope","threads":2}`, http.StatusBadRequest},
		{`{"app":"MCB","threads":0}`, http.StatusBadRequest},
		{`{"app":"MCB","threads":2,"bogus":1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/studies", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("submit %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
}

// TestSubmitRejectsOversizedBody: a submission body past maxSubmitBytes
// is refused with 413 instead of being decoded.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	s, ts := newTestServer(t)
	body := `{"app":"` + strings.Repeat("A", maxSubmitBytes) + `","threads":2}`
	resp, err := http.Post(ts.URL+"/studies", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submission: status %d, want 413", resp.StatusCode)
	}
	if jobs := s.snapshotJobs(); len(jobs) != 0 {
		t.Errorf("oversized submission leaked %d jobs", len(jobs))
	}
}

func TestUnknownStudyAndEarlyReport(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/studies/s-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown study: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/studies/s-999999/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown report: status %d, want 404", resp.StatusCode)
	}
}

func TestListStudies(t *testing.T) {
	_, ts := newTestServer(t)
	st := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":2,"reps":3,"seed":5}`)
	waitDone(t, ts, st.ID)
	resp, err := http.Get(ts.URL + "/studies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("list: %+v", list)
	}
}
