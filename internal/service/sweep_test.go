package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"barrierpoint/internal/obs"
)

// postBatch submits one batch sweep, expecting 202.
func postBatch(t *testing.T, ts *httptest.Server, body string) SweepStatus {
	t.Helper()
	st, code := postBatchCode(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("batch submit: status %d", code)
	}
	return st
}

// postBatchCode submits one batch sweep and returns whatever came back.
func postBatchCode(t *testing.T, ts *httptest.Server, body string) (SweepStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/studies:batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return SweepStatus{}, resp.StatusCode
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, resp.StatusCode
}

func getSweep(t *testing.T, ts *httptest.Server, id string) SweepStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %s: %d", id, resp.StatusCode)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitSweep long-polls the sweep until it reaches a terminal state.
func waitSweep(t *testing.T, ts *httptest.Server, id string) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	since := int64(-1)
	for time.Now().Before(deadline) {
		url := fmt.Sprintf("%s/sweeps/%s?wait=2s", ts.URL, id)
		if since >= 0 {
			url += fmt.Sprintf("&since=%d", since)
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var st SweepStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			resp.Body.Close()
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State.terminal() {
			return st
		}
		since = st.Version
	}
	t.Fatalf("sweep %s did not finish in time", id)
	return SweepStatus{}
}

// getReportBytes fetches one member's rendered report.
func getReportBytes(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/studies/%s/report", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report %s: status %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// batchBody builds a batch submission over n members sharing one
// discovery configuration (reps varies per member).
func batchBody(n int) string {
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf(`{"app":"MCB","threads":2,"runs":3,"reps":%d,"seed":41}`, 3+i)
	}
	return `{"studies":[` + strings.Join(members, ",") + `]}`
}

// metricValue scrapes one un-labelled counter from GET /metrics.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("parsing %s sample %q: %v", name, line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in /metrics", name)
	return 0
}

// TestBatchSweepEndToEnd is the service-level acceptance gate: a 16-study
// sweep sharing a common discovery baseline plans the shared units once
// (visible in the plan stats and bp_sweep_* metrics), streams members to
// done, and renders every member report byte-identical to serial
// one-at-a-time submission against a fresh server.
func TestBatchSweepEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	const members = 16
	s, ts := newTestServer(t)

	sw := postBatch(t, ts, batchBody(members))
	// handleBatchSubmit snapshots after queueing the sweep, so an idle
	// executor may already have started it: any non-terminal state is
	// correct.
	if sw.ID == "" || (sw.State != StateQueued && sw.State != StateRunning) {
		t.Fatalf("batch submit returned %+v", sw)
	}
	if len(sw.Studies) != members {
		t.Fatalf("sweep has %d member statuses, want %d", len(sw.Studies), members)
	}
	for i, m := range sw.Studies {
		if m.Sweep != sw.ID {
			t.Errorf("member %d sweep = %q, want %q", i, m.Sweep, sw.ID)
		}
		if m.ID == "" {
			t.Errorf("member %d has no job ID", i)
		}
	}

	final := waitSweep(t, ts, sw.ID)
	if final.State != StateDone {
		t.Fatalf("sweep ended %s (error: %s)", final.State, final.Error)
	}
	if final.Plan == nil {
		t.Fatal("finished sweep reports no plan stats")
	}
	// The executed plan is released: a retained sweep must not pin its
	// unit artifacts (LDV baselines, collections).
	rec, ok := s.lookupSweep(sw.ID)
	if !ok {
		t.Fatalf("sweep %s not retained", sw.ID)
	}
	rec.mu.Lock()
	held := rec.plan != nil
	rec.mu.Unlock()
	if held {
		t.Error("finished sweep still holds its plan")
	}
	// Shared discovery: 3 units planned once, deduped for the other 15
	// members. Collections are per-member (reps differs).
	if want := (members - 1) * 3; final.Plan.DedupedUnits != want {
		t.Errorf("plan deduped %d units, want %d", final.Plan.DedupedUnits, want)
	}
	if final.Plan.NaiveUnits != final.Plan.PlannedUnits+final.Plan.DedupedUnits+final.Plan.SubsumedUnits {
		t.Errorf("plan stats do not add up: %+v", final.Plan)
	}
	for i, m := range final.Studies {
		if m.State != StateDone {
			t.Fatalf("member %d ended %s (error: %s)", i, m.State, m.Error)
		}
		if m.Summary == nil {
			t.Errorf("member %d has no summary", i)
		}
		if m.Progress == nil || m.Progress.UnitsDone != m.Progress.UnitsTotal {
			t.Errorf("member %d progress = %+v, want full", i, m.Progress)
		}
	}

	if v := metricValue(t, ts, "bp_sweep_units_deduped_total"); v != float64((members-1)*3) {
		t.Errorf("bp_sweep_units_deduped_total = %g, want %d", v, (members-1)*3)
	}
	if v := metricValue(t, ts, "bp_sweep_units_planned_total"); v != float64(final.Plan.PlannedUnits) {
		t.Errorf("bp_sweep_units_planned_total = %g, want %d", v, final.Plan.PlannedUnits)
	}

	h := getHealth(t, ts)
	if h.Sweeps[StateDone] != 1 {
		t.Errorf("healthz sweeps = %v, want one done", h.Sweeps)
	}

	// The byte-identity invariant, through the full HTTP surface: a fresh
	// server runs the same studies one at a time, and every rendered
	// report must match byte for byte.
	s2, ts2 := newTestServer(t)
	_ = s2
	for i, m := range final.Studies {
		req, err := json.Marshal(m.Request)
		if err != nil {
			t.Fatal(err)
		}
		serial := postStudy(t, ts2, string(req))
		waitDone(t, ts2, serial.ID)
		if !bytes.Equal(getReportBytes(t, ts, m.ID), getReportBytes(t, ts2, serial.ID)) {
			t.Errorf("member %d report differs from serial submission", i)
		}
	}
	_ = s
}

// TestBatchSweepFleet: the same batch-vs-serial equivalence holds when
// the sweep's units are dispatched across a 2-worker fleet.
func TestBatchSweepFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	const members = 4
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

	sw := postBatch(t, ts, batchBody(members))
	final := waitSweep(t, ts, sw.ID)
	if final.State != StateDone {
		t.Fatalf("fleet sweep ended %s (error: %s)", final.State, final.Error)
	}

	h := getHealth(t, ts)
	if h.Distributed == nil || h.Distributed.RemoteUnits == 0 {
		t.Error("fleet sweep resolved no units remotely")
	}

	// Serial reference on a purely local server.
	_, ts2 := newTestServer(t)
	for i, m := range final.Studies {
		req, err := json.Marshal(m.Request)
		if err != nil {
			t.Fatal(err)
		}
		serial := postStudy(t, ts2, string(req))
		waitDone(t, ts2, serial.ID)
		if !bytes.Equal(getReportBytes(t, ts, m.ID), getReportBytes(t, ts2, serial.ID)) {
			t.Errorf("fleet member %d report differs from local serial submission", i)
		}
	}
}

// TestBatchSubmitRejectsOversizedBody: a batch body past maxSubmitBytes is
// refused with 413 while it is read, before the member-count bound could
// look at a decoded request.
func TestBatchSubmitRejectsOversizedBody(t *testing.T) {
	s, ts := newTestServer(t)
	member := `{"app":"MCB","threads":2},`
	n := maxSubmitBytes/len(member) + 1
	body := `{"studies":[` + strings.Repeat(member, n) + `{"app":"MCB","threads":2}]}`
	if _, code := postBatchCode(t, ts, body); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch of %d members: status %d, want 413", n+1, code)
	}
	if jobs := s.snapshotJobs(); len(jobs) != 0 {
		t.Errorf("oversized batch leaked %d jobs", len(jobs))
	}
}

// TestBatchSweepValidation: malformed batches are rejected atomically —
// no members registered, no queue slots consumed.
func TestBatchSweepValidation(t *testing.T) {
	s, ts := newTestServer(t)
	for name, body := range map[string]string{
		"empty":           `{"studies":[]}`,
		"unknown app":     `{"studies":[{"app":"nope","threads":2}]}`,
		"bad threads":     `{"studies":[{"app":"MCB","threads":0}]}`,
		"member priority": `{"studies":[{"app":"MCB","threads":2,"priority":3}]}`,
		"bad sweep pri":   `{"studies":[{"app":"MCB","threads":2}],"priority":9999}`,
		"unknown field":   `{"studies":[{"app":"MCB","threads":2}],"frobnicate":1}`,
	} {
		if _, code := postBatchCode(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	// Oversize: one past the configured bound.
	big := mustNew(t, Config{Workers: 2, Executors: 1, QueueDepth: 8, CacheSize: 16, MaxSweepStudies: 2})
	bigTS := httptest.NewServer(big.Handler())
	t.Cleanup(func() {
		bigTS.Close()
		big.Close()
	})
	if _, code := postBatchCode(t, bigTS, batchBody(3)); code != http.StatusBadRequest {
		t.Errorf("oversize sweep: status %d, want 400", code)
	}

	// Nothing leaked into the job or sweep lists.
	if jobs := s.snapshotJobs(); len(jobs) != 0 {
		t.Errorf("rejected batches leaked %d jobs", len(jobs))
	}
	if h := getHealth(t, ts); len(h.Sweeps) != 0 {
		t.Errorf("rejected batches leaked sweeps: %v", h.Sweeps)
	}
}

// TestBatchSweepCancelCascade: DELETE on a sweep cancels every member —
// queued sweeps die immediately, running sweeps wind down with each
// member terminal.
func TestBatchSweepCancelCascade(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	// One executor, occupied by a decoy study: the sweep behind it stays
	// queued, so the cascade hits the queued path deterministically.
	s := mustNew(t, Config{Workers: 2, Executors: 1, QueueDepth: 8, CacheSize: 64, Log: testLogger(t)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	decoy := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":3,"reps":3,"seed":41}`)
	sw := postBatch(t, ts, batchBody(3))

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/sweeps/"+sw.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE queued sweep: status %d, want 200", resp.StatusCode)
	}
	cancelled := getSweep(t, ts, sw.ID)
	if cancelled.State != StateCancelled {
		t.Fatalf("queued sweep after DELETE is %s, want cancelled", cancelled.State)
	}
	for i, m := range cancelled.Studies {
		if m.State != StateCancelled {
			t.Errorf("member %d is %s, want cancelled", i, m.State)
		}
	}
	waitDone(t, ts, decoy.ID)

	// Second sweep runs; DELETE mid-flight cascades at unit boundaries.
	// Its members are sized like longStudy and the DELETE waits for a
	// finished unit, so it lands on a sweep seen running with most of its
	// work ahead (MCB members share their memory traces with the decoy
	// and finish within one round trip).
	long := make([]string, 4)
	for i := range long {
		long[i] = fmt.Sprintf(`{"app":"CoMD","threads":8,"runs":20,"reps":%d,"seed":11}`, 100+i)
	}
	sw2 := postBatch(t, ts, `{"studies":[`+strings.Join(long, ",")+`]}`)
	unitDone := func(st SweepStatus) bool {
		for _, m := range st.Studies {
			if m.Progress != nil && m.Progress.UnitsDone > 0 {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) && !unitDone(getSweep(t, ts, sw2.ID)) {
		time.Sleep(5 * time.Millisecond)
	}
	req2, err := http.NewRequest(http.MethodDelete, ts.URL+"/sweeps/"+sw2.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK && resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running sweep: status %d", resp2.StatusCode)
	}
	final := waitSweep(t, ts, sw2.ID)
	if final.State != StateCancelled {
		t.Fatalf("running sweep after DELETE ended %s, want cancelled", final.State)
	}
	for i, m := range final.Studies {
		if !m.State.terminal() {
			t.Errorf("member %d is %s after sweep cancellation, want terminal", i, m.State)
		}
		if m.State == StateFailed {
			t.Errorf("member %d failed during cancellation: %s", i, m.Error)
		}
	}
	// DELETE again: idempotent 200 on an already-cancelled sweep.
	req3, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sweeps/"+sw2.ID, nil)
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("DELETE cancelled sweep: status %d, want 200", resp3.StatusCode)
	}
}

// TestBatchSweepMemberCancel: DELETE on a single member prunes just that
// member; its siblings complete and the sweep finishes done.
func TestBatchSweepMemberCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	s := mustNew(t, Config{Workers: 2, Executors: 1, QueueDepth: 8, CacheSize: 64, Log: testLogger(t)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	decoy := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":3,"reps":3,"seed":41}`)
	sw := postBatch(t, ts, batchBody(3))
	victim := sw.Studies[1]

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/studies/"+victim.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE queued member: status %d, want 200", resp.StatusCode)
	}
	if st := getStatus(t, ts, victim.ID); st.State != StateCancelled {
		t.Fatalf("cancelled member is %s, want cancelled", st.State)
	}
	waitDone(t, ts, decoy.ID)

	final := waitSweep(t, ts, sw.ID)
	if final.State != StateDone {
		t.Fatalf("sweep with one cancelled member ended %s (error: %s)", final.State, final.Error)
	}
	for i, m := range final.Studies {
		want := StateDone
		if i == 1 {
			want = StateCancelled
		}
		if m.State != want {
			t.Errorf("member %d is %s, want %s", i, m.State, want)
		}
	}
}

// TestBatchSweepQueueFullUnwinds: a batch rejected by a full queue leaves
// no phantom members behind.
func TestBatchSweepQueueFullUnwinds(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	s := mustNew(t, Config{Workers: 2, Executors: 1, QueueDepth: 1, CacheSize: 64, Log: testLogger(t)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	// Fill the single executor and the single queue slot.
	running := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":3,"reps":3,"seed":41}`)
	queued := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":3,"reps":4,"seed":41}`)

	if _, code := postBatchCode(t, ts, batchBody(2)); code != http.StatusServiceUnavailable {
		t.Fatalf("batch against a full queue: status %d, want 503", code)
	}
	for _, st := range s.snapshotJobs() {
		if st.Sweep != "" {
			t.Errorf("rejected batch leaked member %s", st.ID)
		}
	}
	if h := getHealth(t, ts); len(h.Sweeps) != 0 {
		t.Errorf("rejected batch leaked sweep records: %v", h.Sweeps)
	}
	waitDone(t, ts, running.ID)
	waitDone(t, ts, queued.ID)
}

// TestBatchSweepRejectedKeepsFinishedJobs: a batch rejected by a full
// queue evicts nothing. Retention pruning runs only once a submission is
// queued, so finished studies at the MaxJobs bound still answer.
func TestBatchSweepRejectedKeepsFinishedJobs(t *testing.T) {
	s := mustNew(t, Config{Workers: 2, Executors: 1, QueueDepth: 1, CacheSize: 64, MaxJobs: 4, Log: testLogger(t)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	var done []JobStatus
	for seed := 1; seed <= 2; seed++ {
		st := postStudy(t, ts, fmt.Sprintf(`{"app":"MCB","threads":2,"runs":2,"reps":3,"seed":%d}`, seed))
		done = append(done, waitDone(t, ts, st.ID))
	}
	running := postStudy(t, ts, longStudy)
	waitState(t, ts, running.ID, StateRunning)
	queued := postStudy(t, ts, `{"app":"MCB","threads":2,"runs":2,"reps":3,"seed":3}`)

	if _, code := postBatchCode(t, ts, batchBody(2)); code != http.StatusServiceUnavailable {
		t.Fatalf("batch against a full queue: status %d, want 503", code)
	}
	for _, st := range done {
		resp, err := http.Get(ts.URL + "/studies/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("done study %s answers %d after a rejected batch, want 200", st.ID, resp.StatusCode)
		}
	}
	// Free the executor so Cleanup does not wait out the long study.
	doDelete(t, ts, queued.ID)
	doDelete(t, ts, running.ID)
}

// TestBatchSweepAllMembersCancelled: once every member of a queued sweep
// is DELETEd, the sweep itself is cancelled and out of the queue at the
// last DELETE, rather than later taking an executor to plan units that
// nothing needs.
func TestBatchSweepAllMembersCancelled(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, Executors: 1, QueueDepth: 8, CacheSize: 64, Log: testLogger(t)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	blocker := postStudy(t, ts, longStudy)
	waitState(t, ts, blocker.ID, StateRunning)
	sw := postBatch(t, ts, batchBody(2))

	for _, m := range sw.Studies {
		if st, code := doDelete(t, ts, m.ID); code != http.StatusOK || st.State != StateCancelled {
			t.Fatalf("DELETE queued member %s: status %d, state %s; want 200 cancelled", m.ID, code, st.State)
		}
	}
	if got := getSweep(t, ts, sw.ID); got.State != StateCancelled {
		t.Errorf("sweep with every member cancelled is %s, want cancelled", got.State)
	}
	if h := getHealth(t, ts); h.QueueDepth != 0 {
		t.Errorf("queue_depth = %d after the last member's DELETE, want 0", h.QueueDepth)
	}
	doDelete(t, ts, blocker.ID)
}

// TestSweepListAndTrace: GET /sweeps lists submissions in order, a
// finished sweep serves a trace tree rooted at its sweep span, and so does
// each of its members.
func TestSweepListAndTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	_, ts := newTestServer(t)
	sw := postBatch(t, ts, batchBody(2))
	final := waitSweep(t, ts, sw.ID)
	if final.State != StateDone {
		t.Fatalf("sweep ended %s", final.State)
	}

	resp, err := http.Get(ts.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != sw.ID {
		t.Fatalf("GET /sweeps = %+v, want the one sweep", list)
	}

	tresp, err := http.Get(ts.URL + "/sweeps/" + sw.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	body, err := io.ReadAll(tresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("sweep trace: status %d: %s", tresp.StatusCode, body)
	}
	for _, want := range []string{`"sweep"`, `"plan"`, "planned_units"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("sweep trace missing %s", want)
		}
	}

	// A member's trace is the tree of the sweep that ran it.
	mresp, err := http.Get(ts.URL + "/studies/" + final.Studies[0].ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("member trace: status %d", mresp.StatusCode)
	}
	var tr obs.Trace
	if err := json.NewDecoder(mresp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Job != sw.ID || len(tr.Spans) != 1 || tr.Spans[0].Name != "sweep" {
		t.Errorf("member trace is job %q with %d roots, want sweep %s's tree", tr.Job, len(tr.Spans), sw.ID)
	}

	// Unknown sweep IDs 404 on every sweep route.
	for _, path := range []string{"/sweeps/sw-999999", "/sweeps/sw-999999/trace"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, r.StatusCode)
		}
	}
}

// FuzzBatchSubmit feeds arbitrary POST /studies:batch bodies through the
// handler's decode and validation (parseBatch: decodeSubmission, then the
// batch and member checks), stopping short of enqueueing, so nothing
// executes. Every body must be accepted or rejected with a 4xx, never
// panic.
func FuzzBatchSubmit(f *testing.F) {
	for _, body := range []string{
		batchBody(3),
		`{"studies":[{"app":"MCB","threads":2}],"priority":3}`,
		`{"studies":[{"app":"MCB","threads":2,"priority":1}]}`,
		`{"studies":[{"app":"nope","threads":2}]}`,
		`{"studies":[{"app":"MCB","threads":64,"runs":-1}]}`,
		`{"studies":[]}`,
		`{"studies":null,"extra":1}`,
		`{"studies":[{"app":"MCB","threads":2,"reps":1e30}]}`,
		`[]`,
	} {
		f.Add([]byte(body))
	}
	s := mustNew(f, Config{Workers: 1, Executors: 1, QueueDepth: 1, CacheSize: 1})
	f.Cleanup(func() { s.Close() })
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		members, _, code, err := s.parseBatch(rec, httptest.NewRequest(http.MethodPost, "/studies:batch", bytes.NewReader(body)))
		switch {
		case err != nil && (code < 400 || code > 499):
			t.Fatalf("status %d for body %q: %v", code, body, err)
		case err == nil && len(members) == 0:
			t.Fatalf("accepted body %q has no members", body)
		}
	})
}
