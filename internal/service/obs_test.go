package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"barrierpoint/internal/obs"
)

// metricSample is one parsed /metrics line.
type metricSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrapeMetrics GETs /metrics and parses every sample line.
func scrapeMetrics(t *testing.T, ts *httptest.Server) []metricSample {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out []metricSample
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		s := metricSample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			for _, pair := range strings.Split(strings.TrimSuffix(s.name[i+1:], "}"), ",") {
				if k, val, ok := strings.Cut(pair, "="); ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out
}

// sumSeries totals every series of one family.
func sumSeries(ss []metricSample, name string) float64 {
	var total float64
	for _, s := range ss {
		if s.name == name {
			total += s.value
		}
	}
	return total
}

// seriesValue returns the value of the series matching name and labels,
// and whether it exists.
func seriesValue(ss []metricSample, name string, labels map[string]string) (float64, bool) {
	for _, s := range ss {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range labels {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s.value, true
		}
	}
	return 0, false
}

// TestMetricsEndToEnd runs a study against a live server and asserts the
// scrape covers every instrumented layer with non-zero series — and that
// no counter or histogram count ever decreases across scrapes.
func TestMetricsEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)
	st := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":3,"reps":3,"seed":41}`)
	waitDone(t, ts, st.ID)

	first := scrapeMetrics(t, ts)
	for _, want := range []struct {
		name   string
		labels map[string]string
	}{
		{"bp_sched_unit_seconds_count", map[string]string{"kind": "collect"}},
		{"bp_sched_unit_seconds_count", map[string]string{"kind": "discover-baseline"}},
		{"bp_jobs_total", map[string]string{"state": "queued"}},
		{"bp_jobs_total", map[string]string{"state": "done"}},
		{"bp_queue_wait_seconds_count", map[string]string{"band": "0"}},
		{"bp_cache_puts_total", nil},
		{"bp_http_request_seconds_count", map[string]string{"route": "POST /studies", "code": "202"}},
	} {
		v, ok := seriesValue(first, want.name, want.labels)
		if !ok {
			t.Errorf("series %s%v missing from scrape", want.name, want.labels)
		} else if v <= 0 {
			t.Errorf("series %s%v = %v, want > 0", want.name, want.labels, v)
		}
	}
	if _, ok := seriesValue(first, "bp_uptime_seconds", nil); !ok {
		t.Error("bp_uptime_seconds missing from scrape")
	}
	if v, ok := seriesValue(first, "bp_sched_units_inflight", nil); !ok || v != 0 {
		t.Errorf("bp_sched_units_inflight = %v, %v; want 0 after the study finished", v, ok)
	}

	// A second study moves the counters; nothing may decrease.
	st2 := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":3,"reps":3,"seed":43}`)
	waitDone(t, ts, st2.ID)
	second := scrapeMetrics(t, ts)
	for _, s := range first {
		if !strings.HasSuffix(s.name, "_total") && !strings.HasSuffix(s.name, "_count") &&
			!strings.HasSuffix(s.name, "_bucket") {
			continue
		}
		after, ok := seriesValue(second, s.name, s.labels)
		if !ok {
			t.Errorf("series %s%v disappeared between scrapes", s.name, s.labels)
			continue
		}
		if after < s.value {
			t.Errorf("series %s%v decreased: %v -> %v", s.name, s.labels, s.value, after)
		}
	}
	if done, _ := seriesValue(second, "bp_jobs_total", map[string]string{"state": "done"}); done != 2 {
		t.Errorf(`bp_jobs_total{state="done"} = %v after two studies, want 2`, done)
	}

	// The health body reports the same uptime.
	if h := getHealth(t, ts); h.UptimeSeconds <= 0 {
		t.Errorf("health uptime_seconds = %v, want > 0", h.UptimeSeconds)
	}
}

// TestTraceEndToEnd runs a distributed study and asserts the trace
// endpoint serves a complete span tree: one study root, unit spans under
// it, and dispatch spans under the units that went to the fleet — plus
// the JSONL rendering and the worker's own /metrics surface.
// getTrace GETs a study's span tree.
func getTrace(t *testing.T, ts *httptest.Server, id string) obs.Trace {
	t.Helper()
	resp, err := http.Get(ts.URL + "/studies/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d", resp.StatusCode)
	}
	var tr obs.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTraceRootedWhenDone: a lone study's root span ends before its job
// turns terminal, so the trace fetched the moment the status reads done
// (or failed, on the compile-failure path) is one study root carrying
// the job's state, never the bare unit spans.
func TestTraceRootedWhenDone(t *testing.T) {
	_, ts := newTestServer(t)
	for _, c := range []struct {
		body string
		want State
	}{
		{`{"app":"MCB","threads":2,"runs":2,"reps":3,"seed":43}`, StateDone},
		{`{"app":"MCB","threads":64}`, StateFailed},
	} {
		st := postStudy(t, ts, c.body)
		// Long-poll each change, so the trace request follows the
		// transition as closely as the client can manage.
		deadline := time.Now().Add(time.Minute)
		for !st.State.terminal() && time.Now().Before(deadline) {
			var code int
			if st, code = getStatusWait(t, ts, st.ID, "wait=10s&since="+strconv.FormatInt(st.Version, 10)); code != http.StatusOK {
				t.Fatalf("status long-poll = %d", code)
			}
		}
		if st.State != c.want {
			t.Fatalf("study state = %s (%s), want %s", st.State, st.Error, c.want)
		}
		tr := getTrace(t, ts, st.ID)
		if len(tr.Spans) != 1 || tr.Spans[0].Name != "study" {
			t.Fatalf("%s study: trace roots = %d, want exactly the study span", c.want, len(tr.Spans))
		}
		if got := tr.Spans[0].Attrs; got["state"] != string(c.want) || got["error"] != st.Error {
			t.Errorf("study span attrs = %v, want state %s and the job's error %q", got, c.want, st.Error)
		}
	}
}

func TestTraceEndToEnd(t *testing.T) {
	wts := newTestWorker(t)
	s := mustNew(t, Config{
		Workers: 4, Executors: 1, QueueDepth: 8, CacheSize: 64,
		WorkerURLs: []string{wts.URL},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	st := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":3,"reps":3,"seed":41}`)
	if got := waitDone(t, ts, st.ID); got.State != StateDone {
		t.Fatalf("study state = %s (%s), want done", got.State, got.Error)
	}

	tr := getTrace(t, ts, st.ID)
	if tr.Job != st.ID {
		t.Errorf("trace job = %q, want %q", tr.Job, st.ID)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "study" {
		t.Fatalf("trace roots = %d, want exactly the study span", len(tr.Spans))
	}
	root := tr.Spans[0]
	if root.Attrs["state"] != string(StateDone) || root.Attrs["app"] != "MCB" {
		t.Errorf("study span attrs = %v", root.Attrs)
	}
	// Coordinator-side unit spans sit directly under the study root;
	// worker-side unit spans arrive nested inside grafted dispatch
	// subtrees and may sit at any depth there.
	units, dispatches := 0, 0
	var walk func(ns []*obs.SpanNode, depth int, inDispatch bool)
	walk = func(ns []*obs.SpanNode, depth int, inDispatch bool) {
		for _, n := range ns {
			switch {
			case strings.HasPrefix(n.Name, "unit:"):
				units++
				if !inDispatch && depth != 1 {
					t.Errorf("unit span %s at depth %d, want direct child of study", n.Name, depth)
				}
			case n.Name == "dispatch":
				dispatches++
			}
			walk(n.Children, depth+1, inDispatch || n.Name == "dispatch")
		}
	}
	walk(root.Children, 1, false)
	if units == 0 {
		t.Error("no unit spans under the study root")
	}
	if dispatches == 0 {
		t.Error("no dispatch spans recorded for a distributed study")
	}

	// JSONL rendering: every line is one span record.
	resp2, err := http.Get(ts.URL + "/studies/" + st.ID + "/trace?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < units {
		t.Errorf("JSONL trace has %d lines, want at least %d", len(lines), units)
	}
	for _, line := range lines {
		var rec obs.SpanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
	}

	// The worker exposes its own unit and protocol series.
	wss := scrapeMetrics(t, wts)
	if v := sumSeries(wss, "bp_worker_units_total"); v <= 0 {
		t.Errorf("worker bp_worker_units_total = %v, want > 0", v)
	}
	if v := sumSeries(wss, "bp_sched_unit_seconds_count"); v <= 0 {
		t.Errorf("worker bp_sched_unit_seconds_count = %v, want > 0", v)
	}

	// The coordinator's dispatch counters moved.
	css := scrapeMetrics(t, ts)
	if v := sumSeries(css, "bp_dispatch_remote_units_total"); v <= 0 {
		t.Errorf("bp_dispatch_remote_units_total = %v, want > 0", v)
	}
	if v := sumSeries(css, "bp_dispatch_seconds_count"); v <= 0 {
		t.Errorf("bp_dispatch_seconds_count = %v, want > 0", v)
	}

	// Unknown studies and never-started jobs have no trace.
	if resp, err := http.Get(ts.URL + "/studies/s-999999/trace"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("trace of unknown study = %d, want 404", resp.StatusCode)
		}
	}
}
