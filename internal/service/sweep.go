package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/core"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/sched"
)

// BatchRequest is the POST /studies:batch body: a whole experiment sweep
// submitted as one unit. Priority schedules the sweep as a whole (the
// carrier entry in the priority queue); member studies must leave their
// own priority unset.
type BatchRequest struct {
	Studies  []SubmitRequest `json:"studies"`
	Priority *int            `json:"priority,omitempty"`
}

// SweepStatus is the wire representation of one sweep.
type SweepStatus struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	Priority int    `json:"priority"`
	// Version increments on every visible change of the sweep or any
	// member (state transitions, member progress); long-pollers pass it
	// back as ?since=.
	Version int64 `json:"version"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// Plan is the sweep compiler's dedup/subsumption accounting, set once
	// the sweep starts; PlanSeconds is how long compilation took.
	Plan        *sched.PlanStats `json:"plan,omitempty"`
	PlanSeconds float64          `json:"plan_seconds,omitempty"`

	// Studies snapshots every member job, in submission order.
	Studies []JobStatus `json:"studies,omitempty"`
	// Error explains a failed or cancelled sweep.
	Error string `json:"error,omitempty"`
}

// sweep is the server-side record behind a SweepStatus. members and
// carrier are set before the sweep is published and immutable after; the
// rest is guarded by mu. Lock ordering: never acquire a member's j.mu
// while holding sw.mu (snapshot members outside the sweep lock).
type sweep struct {
	members []*job
	carrier *job

	mu     sync.Mutex
	status SweepStatus
	// plan is the executing DAG, set once compilation finishes; member
	// cancellation routes through it.
	plan *sched.SweepPlan
	// changed, when non-nil, is closed at the next visible change.
	changed chan struct{}
	// cancel aborts the running sweep's context.
	cancel context.CancelFunc
	// cancelRequested records a DELETE on the sweep.
	cancelRequested bool
}

// bumpLocked mirrors job.bumpLocked. Callers hold sw.mu.
func (sw *sweep) bumpLocked() {
	sw.status.Version++
	if sw.changed != nil {
		close(sw.changed)
		sw.changed = nil
	}
}

// bump records a visible change caused by a member update.
func (sw *sweep) bump() {
	sw.mu.Lock()
	sw.bumpLocked()
	sw.mu.Unlock()
}

// waitChanLocked mirrors job.waitChanLocked. Callers hold sw.mu.
func (sw *sweep) waitChanLocked() <-chan struct{} {
	if sw.changed == nil {
		sw.changed = make(chan struct{})
	}
	return sw.changed
}

// state reads just the sweep's lifecycle phase.
func (sw *sweep) state() State {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.status.State
}

// maxSweeps bounds how many sweep records are retained; the oldest
// finished sweeps are pruned past it, like job retention.
const maxSweeps = 256

// registerSweepMetrics creates the bp_sweep_* metric families.
func (s *Server) registerSweepMetrics() {
	s.sweepsTotal = s.reg.CounterVec("bp_sweeps_total",
		"Sweep state transitions, by the state entered.", "state")
	s.sweepStudies = s.reg.Histogram("bp_sweep_studies",
		"Member studies per submitted sweep.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	s.sweepPlanSecs = s.reg.Histogram("bp_sweep_plan_seconds",
		"Time the sweep compiler spent planning the merged unit DAG.", nil)
	s.sweepPlanned = s.reg.Counter("bp_sweep_units_planned_total",
		"Units the sweep compiler planned for execution, across all sweeps.")
	s.sweepDeduped = s.reg.Counter("bp_sweep_units_deduped_total",
		"Requested units dropped because an identical unit was already planned in the sweep.")
	s.sweepSubsumed = s.reg.Counter("bp_sweep_units_subsumed_total",
		"Requested discovery units dropped because a sibling study's discovery subsumes them.")
}

// sweepCounts tallies sweeps per state for /healthz; nil until the first
// sweep is submitted so local-only deployments keep their health shape.
func (s *Server) sweepCounts() map[State]int {
	s.mu.Lock()
	sws := make([]*sweep, 0, len(s.sweepOrder))
	for _, id := range s.sweepOrder {
		sws = append(sws, s.sweeps[id])
	}
	s.mu.Unlock()
	if len(sws) == 0 {
		return nil
	}
	counts := map[State]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCancelled: 0,
	}
	for _, sw := range sws {
		counts[sw.state()]++
	}
	return counts
}

// noteSweep counts one sweep state transition and logs it.
func (s *Server) noteSweep(sw *sweep, st State) {
	s.sweepsTotal.With(string(st)).Inc()
	sw.mu.Lock()
	snap := sw.status
	sw.mu.Unlock()
	kv := []any{
		"sweep", snap.ID,
		"state", string(st),
		"studies", strconv.Itoa(len(sw.members)),
		"priority", strconv.Itoa(snap.Priority),
	}
	if st.terminal() && snap.FinishedAt != nil {
		from := snap.SubmittedAt
		if snap.StartedAt != nil {
			from = *snap.StartedAt
		}
		kv = append(kv, "duration", snap.FinishedAt.Sub(from).Round(time.Millisecond))
	}
	level := obs.LevelInfo
	if snap.Error != "" && (st == StateFailed || st == StateCancelled) {
		kv = append(kv, "error", snap.Error)
		if st == StateFailed {
			level = obs.LevelError
		}
	}
	s.log.Log(context.Background(), level, "sweep transition", kv...)
}

// submitSweep validates and enqueues one batch sweep: members register as
// ordinary (queued) jobs and a single carrier holds the sweep's place in
// the priority queue, so a sweep competes with individual submissions
// under the same banding rules.
func (s *Server) submitSweep(req BatchRequest) (SweepStatus, int, error) {
	if len(req.Studies) == 0 {
		return SweepStatus{}, http.StatusBadRequest,
			errors.New("service: batch needs at least one study")
	}
	if len(req.Studies) > s.maxSweepStudies {
		return SweepStatus{}, http.StatusBadRequest,
			fmt.Errorf("service: batch is limited to %d studies, got %d", s.maxSweepStudies, len(req.Studies))
	}
	pri := s.defaultPri
	if req.Priority != nil {
		if *req.Priority < -MaxPriority || *req.Priority > MaxPriority {
			return SweepStatus{}, http.StatusBadRequest,
				fmt.Errorf("service: priority must be in [%d, %d], got %d", -MaxPriority, MaxPriority, *req.Priority)
		}
		pri = *req.Priority
	}
	now := s.now()
	members := make([]*job, len(req.Studies))
	for i, sr := range req.Studies {
		if sr.Priority != nil {
			return SweepStatus{}, http.StatusBadRequest,
				fmt.Errorf("service: study %d: member priority is set by the sweep's priority field", i)
		}
		if _, err := s.validateSubmit(sr); err != nil {
			return SweepStatus{}, http.StatusBadRequest, fmt.Errorf("service: study %d: %w", i, err)
		}
		members[i] = &job{status: JobStatus{
			State:       StateQueued,
			Request:     sr,
			Priority:    pri,
			SubmittedAt: now,
		}}
	}
	sw := &sweep{members: members, status: SweepStatus{
		State:       StateQueued,
		Priority:    pri,
		SubmittedAt: now,
	}}
	sw.carrier = &job{carries: sw, status: JobStatus{
		State:       StateQueued,
		Priority:    pri,
		SubmittedAt: now,
	}}

	s.mu.Lock()
	s.nextSweepID++
	swID := fmt.Sprintf("sw-%06d", s.nextSweepID)
	sw.status.ID = swID
	memberIDs := make([]string, len(members))
	for i, j := range members {
		s.nextID++
		id := fmt.Sprintf("s-%06d", s.nextID)
		j.status.ID = id
		j.status.Sweep = swID
		j.memberOf = sw
		j.memberIdx = i
		s.jobs[id] = j
		s.order = append(s.order, id)
		memberIDs[i] = id
	}
	s.sweeps[swID] = sw
	s.sweepOrder = append(s.sweepOrder, swID)
	s.pruneJobs()
	s.pruneSweeps()
	s.mu.Unlock()

	if err := s.queue.push(sw.carrier, pri); err != nil {
		// Unwind the registration: a rejected batch must not leave
		// phantom queued jobs behind that no executor will ever run.
		s.mu.Lock()
		for _, id := range memberIDs {
			delete(s.jobs, id)
		}
		delete(s.sweeps, swID)
		s.order = withoutIDs(s.order, memberIDs)
		s.sweepOrder = withoutIDs(s.sweepOrder, []string{swID})
		s.mu.Unlock()
		if errors.Is(err, errQueueFull) {
			err = fmt.Errorf("%w (%d pending)", err, s.queue.len())
		}
		return SweepStatus{}, http.StatusServiceUnavailable, err
	}
	for _, j := range members {
		s.noteTransition(j, StateQueued)
	}
	s.noteSweep(sw, StateQueued)
	s.sweepStudies.Observe(float64(len(members)))
	return s.sweepSnapshot(sw), http.StatusAccepted, nil
}

// withoutIDs filters ids out of list, preserving order.
func withoutIDs(list, ids []string) []string {
	drop := make(map[string]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	kept := list[:0]
	for _, id := range list {
		if !drop[id] {
			kept = append(kept, id)
		}
	}
	return kept
}

// pruneSweeps drops the oldest finished sweeps past the retention bound.
// The caller holds s.mu. Queued and running sweeps are always kept.
func (s *Server) pruneSweeps() {
	excess := len(s.sweepOrder) - maxSweeps
	if excess <= 0 {
		return
	}
	kept := s.sweepOrder[:0]
	for _, id := range s.sweepOrder {
		if excess > 0 && s.sweeps[id].state().terminal() {
			delete(s.sweeps, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.sweepOrder = kept
}

// lookupSweep returns the sweep for an ID.
func (s *Server) lookupSweep(id string) (*sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

// sweepSnapshot copies the sweep's status and snapshots every member
// (outside sw.mu — see the lock-ordering note on sweep).
func (s *Server) sweepSnapshot(sw *sweep) SweepStatus {
	sw.mu.Lock()
	st := sw.status
	if st.Plan != nil {
		p := *st.Plan
		st.Plan = &p
	}
	sw.mu.Unlock()
	st.Studies = make([]JobStatus, len(sw.members))
	for i, j := range sw.members {
		st.Studies[i] = j.snapshot()
	}
	return st
}

// terminalizeMember moves one member job to a terminal state exactly
// once; reports whether this call was the one that did it.
func (s *Server) terminalizeMember(j *job, st State, err error) bool {
	finished := s.now()
	j.mu.Lock()
	if j.status.State.terminal() {
		j.mu.Unlock()
		return false
	}
	j.status.State = st
	j.status.FinishedAt = &finished
	if err != nil {
		j.status.Error = err.Error()
	}
	j.bumpLocked()
	j.mu.Unlock()
	s.noteTransition(j, st)
	return true
}

// finishSweep moves the sweep to a terminal state exactly once.
func (s *Server) finishSweep(sw *sweep, at time.Time, st State, err error) {
	sw.mu.Lock()
	if sw.status.State.terminal() {
		sw.mu.Unlock()
		return
	}
	sw.status.State = st
	sw.status.FinishedAt = &at
	if err != nil {
		sw.status.Error = err.Error()
	}
	sw.cancel = nil
	sw.bumpLocked()
	sw.mu.Unlock()
	s.noteSweep(sw, st)
}

// abortQueuedSweep cancels a sweep whose carrier never ran (queue drain
// on Close, DELETE before start): every member and the sweep itself go
// terminal-cancelled immediately.
func (s *Server) abortQueuedSweep(sw *sweep, err error) {
	sw.mu.Lock()
	sw.cancelRequested = true
	sw.mu.Unlock()
	for _, j := range sw.members {
		s.terminalizeMember(j, StateCancelled, err)
	}
	s.finishSweep(sw, s.now(), StateCancelled, err)
}

// runSweep drives one dequeued sweep: compile the member studies into the
// merged unit DAG, execute it, and stream member completions into their
// job records. Member failure or cancellation is isolated; the sweep
// itself fails only if a member failed, and cancels only via DELETE or
// server shutdown.
func (s *Server) runSweep(sw *sweep) {
	started := s.now()
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()

	sw.mu.Lock()
	if sw.cancelRequested {
		sw.mu.Unlock()
		for _, j := range sw.members {
			s.terminalizeMember(j, StateCancelled, errors.New("service: cancelled before start"))
		}
		s.finishSweep(sw, started, StateCancelled, context.Canceled)
		return
	}
	sw.cancel = cancel
	sw.status.State = StateRunning
	sw.status.StartedAt = &started
	id := sw.status.ID
	sw.bumpLocked()
	sw.mu.Unlock()
	s.noteSweep(sw, StateRunning)

	// The sweep root span: the compiler's plan span and every unit below
	// attach as descendants via the context.
	root := s.tracer.StartJob(id).Root("sweep")
	root.SetAttr("studies", strconv.Itoa(len(sw.members)))
	ctx = obs.ContextWithSpan(ctx, root)
	final, finalErr := StateDone, error(nil)
	defer func() {
		root.SetAttr("state", string(final))
		if finalErr != nil {
			root.SetAttr("error", finalErr.Error())
		}
		root.End()
	}()

	// Start every not-yet-cancelled member and build its study request.
	// App names were validated at submission, so resolution cannot fail.
	reqs := make([]sched.StudyRequest, len(sw.members))
	for i, j := range sw.members {
		req := func() SubmitRequest {
			j.mu.Lock()
			defer j.mu.Unlock()
			return j.status.Request
		}()
		a, err := apps.ByName(req.App)
		if err != nil {
			for _, m := range sw.members {
				s.terminalizeMember(m, StateFailed, err)
			}
			final, finalErr = StateFailed, err
			s.finishSweep(sw, s.now(), StateFailed, err)
			return
		}
		cfg := studyConfig(req)
		reqs[i] = sched.StudyRequest{App: a.Name, Build: a.Build, Config: cfg}
		transitioned := false
		j.mu.Lock()
		if !j.status.State.terminal() && !j.cancelRequested {
			j.status.State = StateRunning
			j.status.StartedAt = &started
			j.status.Progress = &Progress{UnitsTotal: sched.StudyUnits(cfg)}
			j.bumpLocked()
			transitioned = true
		}
		j.mu.Unlock()
		if transitioned {
			s.noteTransition(j, StateRunning)
		}
	}

	planStart := time.Now()
	plan, err := sched.CompileSweep(ctx, reqs, s.opts)
	if err != nil {
		// A DELETE or shutdown that lands mid-compile stopped the sweep;
		// it did not fail.
		st := StateFailed
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			st = StateCancelled
		}
		for _, j := range sw.members {
			s.terminalizeMember(j, st, err)
		}
		final, finalErr = st, err
		s.finishSweep(sw, s.now(), st, err)
		return
	}
	planSeconds := time.Since(planStart).Seconds()
	stats := plan.Stats()
	s.sweepPlanSecs.Observe(planSeconds)
	s.sweepPlanned.Add(uint64(stats.PlannedUnits))
	s.sweepDeduped.Add(uint64(stats.DedupedUnits))
	s.sweepSubsumed.Add(uint64(stats.SubsumedUnits))
	root.SetAttr("naive_units", strconv.Itoa(stats.NaiveUnits))
	root.SetAttr("planned_units", strconv.Itoa(stats.PlannedUnits))
	root.SetAttr("deduped_units", strconv.Itoa(stats.DedupedUnits))
	root.SetAttr("subsumed_units", strconv.Itoa(stats.SubsumedUnits))

	sw.mu.Lock()
	sw.plan = plan
	sw.status.Plan = &stats
	sw.status.PlanSeconds = planSeconds
	sw.bumpLocked()
	sw.mu.Unlock()

	// Members cancelled between submission and plan publication prune
	// now; later DELETEs reach the plan directly through sw.plan.
	for i, j := range sw.members {
		j.mu.Lock()
		cancelled := j.cancelRequested || j.status.State.terminal()
		j.mu.Unlock()
		if cancelled {
			plan.CancelStudy(i)
		}
	}

	_, execErr := plan.Execute(ctx, sched.SweepOptions{
		OnStudy: func(i int, res *core.StudyResult, err error) {
			s.finishSweepMember(sw, sw.members[i], res, err)
		},
		Progress: func(i, done, total int) {
			sw.members[i].setProgress(done, total)
			sw.bump()
		},
	})

	finished := s.now()
	sw.mu.Lock()
	wasCancelled := sw.cancelRequested
	sw.mu.Unlock()
	var memberErr error
	failedMembers := 0
	for _, j := range sw.members {
		j.mu.Lock()
		if j.status.State == StateFailed {
			failedMembers++
			if memberErr == nil && j.status.Error != "" {
				memberErr = errors.New(j.status.Error)
			}
		}
		j.mu.Unlock()
	}
	switch {
	case execErr != nil && (wasCancelled || s.ctx.Err() != nil):
		final, finalErr = StateCancelled, execErr
	case execErr != nil:
		final, finalErr = StateFailed, execErr
	case failedMembers > 0:
		final = StateFailed
		finalErr = fmt.Errorf("service: %d member studies failed, first: %w", failedMembers, memberErr)
	}
	s.finishSweep(sw, finished, final, finalErr)
}

// finishSweepMember records one member outcome streamed out of the
// executing plan, classifying it exactly as runJob classifies a serial
// study's outcome.
func (s *Server) finishSweepMember(sw *sweep, j *job, res *core.StudyResult, err error) {
	finished := s.now()
	sw.mu.Lock()
	sweepCancelled := sw.cancelRequested
	sw.mu.Unlock()
	st := StateDone
	j.mu.Lock()
	if j.status.State.terminal() {
		j.mu.Unlock()
		return
	}
	switch {
	case err == nil:
		summary := res.Summarise()
		j.status.Summary = &summary
		j.result = res
	case errors.Is(err, context.Canceled) && (j.cancelRequested || sweepCancelled || s.ctx.Err() != nil):
		st = StateCancelled
		j.status.Error = err.Error()
	default:
		st = StateFailed
		j.status.Error = err.Error()
	}
	j.status.State = st
	j.status.FinishedAt = &finished
	j.bumpLocked()
	j.mu.Unlock()
	s.noteTransition(j, st)
	sw.bump()
}

// cancelMember cancels one batch-submitted job: the member is pruned from
// the sweep's plan (units only it still needs are skipped as they
// surface) while its siblings keep running.
func (s *Server) cancelMember(j *job) (JobStatus, int, error) {
	sw := j.memberOf
	j.mu.Lock()
	st := j.status.State
	if st == StateDone || st == StateFailed {
		id := j.status.ID
		j.mu.Unlock()
		return JobStatus{}, http.StatusConflict,
			fmt.Errorf("service: study %s is already %s", id, st)
	}
	if st == StateCancelled {
		j.mu.Unlock()
		return j.snapshot(), http.StatusOK, nil
	}
	j.cancelRequested = true
	idx := j.memberIdx
	j.mu.Unlock()
	sw.mu.Lock()
	plan := sw.plan
	sw.mu.Unlock()
	if st == StateQueued {
		// The sweep has not started this member: terminal immediately,
		// and prune it from the plan if compilation already happened.
		if s.terminalizeMember(j, StateCancelled, errors.New("service: cancelled before start")) {
			sw.bump()
		}
		if plan != nil {
			plan.CancelStudy(idx)
		}
		return j.snapshot(), http.StatusOK, nil
	}
	if plan != nil {
		plan.CancelStudy(idx)
	}
	// Running member: the plan finalises it (OnStudy → cancelled) and
	// skips its exclusive units; 202 — poll for "cancelled".
	return j.snapshot(), http.StatusAccepted, nil
}

// cancelSweep cancels a whole sweep, cascading to every member: a
// still-queued sweep is removed from the queue and terminal immediately;
// a running one has its context cancelled and winds down at the next
// unit boundaries.
func (s *Server) cancelSweep(sw *sweep) (SweepStatus, int, error) {
	if s.queue.remove(sw.carrier) {
		s.abortQueuedSweep(sw, errors.New("service: cancelled before start"))
		return s.sweepSnapshot(sw), http.StatusOK, nil
	}
	sw.mu.Lock()
	st := sw.status.State
	if st == StateDone || st == StateFailed {
		id := sw.status.ID
		sw.mu.Unlock()
		return SweepStatus{}, http.StatusConflict,
			fmt.Errorf("service: sweep %s is already %s", id, st)
	}
	if st == StateCancelled {
		sw.mu.Unlock()
		return s.sweepSnapshot(sw), http.StatusOK, nil
	}
	sw.cancelRequested = true
	cancel := sw.cancel
	sw.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	// Queued-but-claimed (an executor popped the carrier but has not
	// started) is handled by runSweep's cancelRequested check.
	return s.sweepSnapshot(sw), http.StatusAccepted, nil
}

func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if code, err := decodeSubmission(w, r, &req); err != nil {
		s.writeError(w, code, fmt.Errorf("service: decoding batch submission: %w", err))
		return
	}
	status, code, err := s.submitSweep(req)
	if err != nil {
		s.writeError(w, code, err)
		return
	}
	s.writeJSON(w, code, status)
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sws := make([]*sweep, 0, len(s.sweepOrder))
	for _, id := range s.sweepOrder {
		sws = append(sws, s.sweeps[id])
	}
	s.mu.Unlock()
	statuses := make([]SweepStatus, 0, len(sws))
	for _, sw := range sws {
		statuses = append(statuses, s.sweepSnapshot(sw))
	}
	s.writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookupSweep(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown sweep %q", r.PathValue("id")))
		return
	}
	q := r.URL.Query()
	waitStr := q.Get("wait")
	if waitStr == "" {
		s.writeJSON(w, http.StatusOK, s.sweepSnapshot(sw))
		return
	}
	wait, err := time.ParseDuration(waitStr)
	if err != nil || wait < 0 {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("service: wait must be a non-negative duration, got %q", waitStr))
		return
	}
	wait = min(wait, maxLongPoll)
	var since int64 = -1
	if sinceStr := q.Get("since"); sinceStr != "" {
		since, err = strconv.ParseInt(sinceStr, 10, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest,
				fmt.Errorf("service: since must be a version number, got %q", sinceStr))
			return
		}
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		sw.mu.Lock()
		version := sw.status.Version
		state := sw.status.State
		ch := sw.waitChanLocked()
		sw.mu.Unlock()
		if since < 0 {
			since = version
		}
		if version > since || state.terminal() {
			s.writeJSON(w, http.StatusOK, s.sweepSnapshot(sw))
			return
		}
		select {
		case <-ch:
		case <-timer.C:
			s.writeJSON(w, http.StatusOK, s.sweepSnapshot(sw))
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookupSweep(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown sweep %q", r.PathValue("id")))
		return
	}
	status, code, err := s.cancelSweep(sw)
	if err != nil {
		s.writeError(w, code, err)
		return
	}
	s.writeJSON(w, code, status)
}

// handleSweepTrace serves the sweep's span tree: the sweep root, the
// compiler's plan span, and every executed unit beneath.
func (s *Server) handleSweepTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.lookupSweep(id); !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown sweep %q", id))
		return
	}
	jt, ok := s.tracer.Job(id)
	if !ok {
		s.writeError(w, http.StatusNotFound,
			fmt.Errorf("service: no trace for sweep %s (not started, or evicted)", id))
		return
	}
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := jt.WriteJSONL(w); err != nil {
			s.log.Error(r.Context(), "trace write failed", "job", id, "err", err)
		}
		return
	}
	s.writeJSON(w, http.StatusOK, jt.Tree())
}
