package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"barrierpoint/internal/core"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/sched"
)

// BatchRequest is the POST /studies:batch body: a whole experiment sweep
// submitted as one unit. Priority schedules the sweep as a whole (its one
// entry in the priority queue); member studies must leave their own
// priority unset.
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

// sweep is the server-side record behind a SweepStatus and the unit of
// queueing and execution for every submission: a batch runs as a listed
// sweep, a lone study as an unlisted one-member sweep that takes its
// job's ID and is reachable only through that job. members, listed and
// the ID in status are set before the sweep is published and immutable
// after; the rest is guarded by mu. Lock ordering: never acquire a
// member's j.mu while holding sw.mu (snapshot members outside the sweep
// lock).
type sweep struct {
	members []*job
	listed  bool

	mu     sync.Mutex
	status SweepStatus
	// plan is the executing DAG: set once compilation finishes, so member
	// cancellation can route through it, and released once it has run,
	// so a retained sweep does not pin its unit artifacts.
	plan *sched.SweepPlan
	// changed, when non-nil, is closed at the next visible change.
	changed chan struct{}
	// cancel aborts the running sweep's context.
	cancel context.CancelFunc
	// cancelRequested records a stop: a DELETE on the sweep, or the
	// all-cancelled rule.
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

// watch mirrors job.watch.
func (sw *sweep) watch() (int64, State, <-chan struct{}) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.changed == nil {
		sw.changed = make(chan struct{})
	}
	return sw.status.Version, sw.status.State, sw.changed
}

// state reads just the sweep's lifecycle phase.
func (sw *sweep) state() State {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.status.State
}

// allCancelled reports whether every member has been cancelled, which
// stops the sweep (see cancelJob).
func (sw *sweep) allCancelled() bool {
	for _, j := range sw.members {
		j.mu.Lock()
		cancelled := j.cancelRequested
		j.mu.Unlock()
		if !cancelled {
			return false
		}
	}
	return true
}

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

// listedSweeps returns the retained batch sweeps in submission order.
func (s *Server) listedSweeps() []*sweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sws []*sweep
	for _, sw := range s.order {
		if sw.listed {
			sws = append(sws, sw)
		}
	}
	return sws
}

// sweepCounts tallies batch sweeps per state for /healthz; nil while there
// are none, so local-only deployments keep their health shape.
func (s *Server) sweepCounts() map[State]int {
	sws := s.listedSweeps()
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

// noteSweep counts one batch sweep state transition and logs it. A lone
// study's sweep is unlisted: its job's transitions are the whole record.
func (s *Server) noteSweep(sw *sweep, st State) {
	if !sw.listed {
		return
	}
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

// parseBatch decodes and validates a POST /studies:batch body into the
// member jobs of a listed sweep and its band, touching nothing else. On
// failure it returns the 4xx status to answer with.
func (s *Server) parseBatch(w http.ResponseWriter, r *http.Request) ([]*job, int, int, error) {
	var req BatchRequest
	if code, err := decodeSubmission(w, r, &req); err != nil {
		return nil, 0, code, fmt.Errorf("service: decoding batch submission: %w", err)
	}
	if len(req.Studies) == 0 {
		return nil, 0, http.StatusBadRequest, errors.New("service: batch needs at least one study")
	}
	if len(req.Studies) > s.maxSweepStudies {
		return nil, 0, http.StatusBadRequest,
			fmt.Errorf("service: batch is limited to %d studies, got %d", s.maxSweepStudies, len(req.Studies))
	}
	pri, err := s.priority(req.Priority)
	if err != nil {
		return nil, 0, http.StatusBadRequest, err
	}
	members := make([]*job, len(req.Studies))
	for i, sr := range req.Studies {
		if sr.Priority != nil {
			return nil, 0, http.StatusBadRequest,
				fmt.Errorf("service: study %d: member priority is set by the sweep's priority field", i)
		}
		if members[i], err = s.newJob(sr, req.Priority); err != nil {
			return nil, 0, http.StatusBadRequest, fmt.Errorf("service: study %d: %w", i, err)
		}
	}
	return members, pri, 0, nil
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

// outcome returns the state and error terminalizeMember(j, st, _, err)
// leaves the job in: its own, if it is terminal already.
func (j *job) outcome(st State, err error) (State, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.State.terminal() {
		return j.status.State, j.status.Error
	}
	if err != nil {
		return st, err.Error()
	}
	return st, ""
}

// terminalizeMember moves one member job to a terminal state exactly
// once, keeping res as a done member's result.
func (s *Server) terminalizeMember(j *job, st State, res *core.StudyResult, err error) {
	finished := time.Now()
	j.mu.Lock()
	if j.status.State.terminal() {
		j.mu.Unlock()
		return
	}
	j.status.State = st
	j.status.FinishedAt = &finished
	if res != nil {
		summary := res.Summarise()
		j.status.Summary = &summary
		j.result = res
	}
	if err != nil {
		j.status.Error = err.Error()
	}
	j.bumpLocked()
	j.mu.Unlock()
	s.noteTransition(j, st)
	j.sw.bump()
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

// abortSweep cancels a sweep that never ran (queue drain on Close, a
// stop before start): every member and the sweep itself go
// terminal-cancelled immediately.
func (s *Server) abortSweep(sw *sweep, err error) {
	for _, j := range sw.members {
		s.terminalizeMember(j, StateCancelled, nil, err)
	}
	s.finishSweep(sw, time.Now(), StateCancelled, err)
}

// stopSweep stops a whole sweep: a still-queued one leaves the queue and
// is aborted at once (reported true); a claimed or running one has its
// context cancelled and winds down at the next unit boundaries.
func (s *Server) stopSweep(sw *sweep) bool {
	if s.queue.remove(sw) {
		s.abortSweep(sw, errCancelledBeforeStart)
		return true
	}
	sw.mu.Lock()
	sw.cancelRequested = true
	cancel := sw.cancel
	sw.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return false
}

// runSweep drives one dequeued sweep: compile the member studies into the
// merged unit DAG, execute it, and stream member completions into their
// job records. Member failure or cancellation is isolated; the sweep
// itself fails only if a member failed, and cancels only when stopped or
// at server shutdown.
func (s *Server) runSweep(sw *sweep) {
	started := time.Now()
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()

	sw.mu.Lock()
	if sw.cancelRequested {
		// Stopped between its dequeue and now: it never starts.
		sw.mu.Unlock()
		s.abortSweep(sw, errCancelledBeforeStart)
		return
	}
	sw.cancel = cancel
	sw.status.State = StateRunning
	sw.status.StartedAt = &started
	id := sw.status.ID
	sw.bumpLocked()
	sw.mu.Unlock()
	s.noteSweep(sw, StateRunning)

	// The root span, a batch's "sweep" or a lone study's "study": the
	// compiler's plan span and every unit below attach as descendants via
	// the context.
	name := "sweep"
	if !sw.listed {
		name = "study"
	}
	root := s.tracer.StartJob(id).Root(name)
	if sw.listed {
		root.SetAttr("studies", strconv.Itoa(len(sw.members)))
	} else {
		req := sw.members[0].study
		root.SetAttr("app", req.App)
		root.SetAttr("threads", strconv.Itoa(req.Config.Threads))
		root.SetAttr("runs", strconv.Itoa(req.Config.Runs))
	}
	ctx = obs.ContextWithSpan(ctx, root)
	// endRoot records an outcome on the root and ends it, once.
	var rootOnce sync.Once
	endRoot := func(state State, msg string) {
		rootOnce.Do(func() {
			root.SetAttr("state", string(state))
			if msg != "" {
				root.SetAttr("error", msg)
			}
			root.End()
		})
	}
	// terminalize finishes one member. A lone study's root reports its
	// job's outcome and ends before the job turns terminal, so a trace
	// fetched as soon as the status reads done already has its root.
	terminalize := func(j *job, st State, res *core.StudyResult, err error) {
		if !sw.listed {
			endRoot(j.outcome(st, err))
		}
		s.terminalizeMember(j, st, res, err)
	}
	final, finalErr := StateDone, error(nil)
	defer func() {
		// A batch's root reports the sweep's outcome. A lone study's has
		// ended already: its job reached terminalize, as every member does
		// (OnStudy fires exactly once per member).
		msg := ""
		if finalErr != nil {
			msg = finalErr.Error()
		}
		endRoot(final, msg)
	}()

	// Start every member not already cancelled.
	reqs := make([]sched.StudyRequest, len(sw.members))
	for i, j := range sw.members {
		reqs[i] = j.study
		j.mu.Lock()
		start := !j.status.State.terminal() && !j.cancelRequested
		if start {
			j.status.State = StateRunning
			j.status.StartedAt = &started
			j.status.Progress = &Progress{UnitsTotal: sched.StudyUnits(j.study.Config)}
			j.bumpLocked()
		}
		j.mu.Unlock()
		if start {
			s.noteTransition(j, StateRunning)
		}
	}

	planStart := time.Now()
	plan, err := sched.CompileSweep(ctx, reqs, s.opts)
	if err != nil {
		// A stop or shutdown that lands mid-compile cancelled the sweep;
		// it did not fail.
		final, finalErr = StateFailed, err
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			final = StateCancelled
		}
		for _, j := range sw.members {
			terminalize(j, final, nil, err)
		}
		s.finishSweep(sw, time.Now(), final, err)
		return
	}
	planSeconds := time.Since(planStart).Seconds()
	stats := plan.Stats()
	if sw.listed {
		s.sweepPlanSecs.Observe(planSeconds)
		s.sweepPlanned.Add(uint64(stats.PlannedUnits))
		s.sweepDeduped.Add(uint64(stats.DedupedUnits))
		s.sweepSubsumed.Add(uint64(stats.SubsumedUnits))
		root.SetAttr("naive_units", strconv.Itoa(stats.NaiveUnits))
		root.SetAttr("planned_units", strconv.Itoa(stats.PlannedUnits))
		root.SetAttr("deduped_units", strconv.Itoa(stats.DedupedUnits))
		root.SetAttr("subsumed_units", strconv.Itoa(stats.SubsumedUnits))
	}

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
			j := sw.members[i]
			terminalize(j, memberState(ctx, j, err), res, err)
		},
		Progress: func(i, done, total int) {
			sw.members[i].setProgress(done, total)
			sw.bump()
		},
	})

	finished := time.Now()
	sw.mu.Lock()
	sw.plan = nil
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
	case execErr != nil:
		// Execute fails only once ctx ends: a stop or shutdown.
		final, finalErr = StateCancelled, execErr
	case failedMembers > 0:
		final = StateFailed
		finalErr = fmt.Errorf("service: %d member studies failed, first: %w", failedMembers, memberErr)
	}
	s.finishSweep(sw, finished, final, finalErr)
}

// memberState is the terminal state of one member outcome streamed out
// of the executing plan. A cancellation that a DELETE of the member, a
// stop of its sweep or shutdown caused (the latter two end ctx) finishes
// it cancelled — it was stopped, it did not fail; any other error
// finishes it failed.
func memberState(ctx context.Context, j *job, err error) State {
	j.mu.Lock()
	deleted := j.cancelRequested
	j.mu.Unlock()
	switch {
	case errors.Is(err, context.Canceled) && (deleted || ctx.Err() != nil):
		return StateCancelled
	case err != nil:
		return StateFailed
	}
	return StateDone
}

// cancelSweep cancels a whole sweep, cascading to every member: a
// still-queued sweep leaves the queue and is terminal immediately (200);
// a running one has its context cancelled and winds down at the next unit
// boundaries (202). Cancelling an already-cancelled sweep is a no-op;
// done/failed sweeps conflict.
func (s *Server) cancelSweep(sw *sweep) (SweepStatus, int, error) {
	sw.mu.Lock()
	st, id := sw.status.State, sw.status.ID
	sw.mu.Unlock()
	switch st {
	case StateDone, StateFailed:
		return SweepStatus{}, http.StatusConflict,
			fmt.Errorf("service: sweep %s is already %s", id, st)
	case StateCancelled:
		return s.sweepSnapshot(sw), http.StatusOK, nil
	}
	code := http.StatusAccepted
	if s.stopSweep(sw) {
		code = http.StatusOK
	}
	return s.sweepSnapshot(sw), code, nil
}

// handleBatchSubmit enqueues a valid batch as a listed sweep, which holds
// one place in the priority queue and so competes with individual
// submissions under the same banding rules.
func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	members, pri, code, err := s.parseBatch(w, r)
	if err != nil {
		s.writeError(w, code, err)
		return
	}
	sw, err := s.enqueue(members, pri, true)
	if err != nil {
		s.writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	s.sweepStudies.Observe(float64(len(members)))
	s.writeJSON(w, http.StatusAccepted, s.sweepSnapshot(sw))
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	sws := s.listedSweeps()
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
	s.longPoll(w, r, sw.watch, func() any { return s.sweepSnapshot(sw) })
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
	s.writeTrace(w, r, "sweep "+id, id)
}
