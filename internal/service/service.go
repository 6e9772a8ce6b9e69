// Package service exposes the study-execution subsystem over HTTP.
//
// A Server queues study submissions onto the internal/sched worker pool,
// tracks each job through queued → running → done/failed/cancelled, and
// renders finished studies via internal/report. The API is JSON:
//
//	POST   /studies             submit a study        → 202 + job status
//	POST   /studies:batch       submit a whole sweep  → 202 + sweep status
//	GET    /studies             list all jobs         → 200 + statuses
//	GET    /studies/{id}        poll one job          → 200 + job status
//	DELETE /studies/{id}        cancel one job        → 200/202 + job status
//	GET    /studies/{id}/report render a finished job → 200 text/plain
//	GET    /sweeps              list all sweeps       → 200 + sweep statuses
//	GET    /sweeps/{id}         poll one sweep        → 200 + sweep status
//	DELETE /sweeps/{id}         cancel one sweep      → 200/202 + sweep status
//	GET    /healthz             liveness + counters   → 200 + health
//
// POST /studies:batch accepts a list of study configurations and compiles
// the whole sweep server-side into one deduplicated unit DAG
// (sched.CompileSweep) before execution: units shared between member
// studies execute exactly once, discovery sweeps over different run
// counts are subsumed into the superset, and every member's report stays
// byte-identical to serial one-at-a-time submission. Members appear as
// ordinary jobs (with a "sweep" field) and stream to done as they
// complete; DELETE on the sweep cascades to every member, DELETE on a
// member prunes just that member's work from the running DAG.
//
// GET /studies/{id} long-polls with ?wait=<dur>: the response is held
// back until the job's state or progress changes (or the wait elapses),
// so clients track a study with one outstanding request instead of a
// poll loop. Every status carries a version; pass it back as
// &since=<version> to sleep through states you have already seen.
//
// With Config.WorkerURLs set the server runs distributed: study units are
// dispatched over HTTP to a fleet of unit workers (cmd/bpworker) via
// sched.RemoteExecutor, with retry/backoff on worker failure and local
// fallback when no worker is healthy. /healthz then also reports
// per-worker health and dispatch counters.
//
// Submissions carry an optional priority: higher-priority jobs start
// first, equal priorities start in submission order. A running job
// reports live progress (units completed / total) on every poll, and
// DELETE cancels it promptly — the queue entry is removed if it has not
// started, the study's context is cancelled if it has.
//
// Studies are memoised through the server's resultcache, so repeated or
// overlapping submissions skip recomputation. With Config.CacheDir set
// the cache is backed by a persistent store (internal/cachestore): results
// survive restarts and are shared with batch runs pointed at the same
// directory, and Close flushes pending write-behinds before returning.
// /healthz reports the cache's hit/miss/byte counters and, when present,
// the disk store's.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/cachestore"
	"barrierpoint/internal/core"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/resultcache"
	"barrierpoint/internal/sched"
)

// State is a job's lifecycle phase.
type State string

// Job states. queued → running → done/failed; cancelled is reachable
// from queued (removed before start) and running (context cancelled).
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether a job in this state can no longer change.
func (st State) terminal() bool {
	return st == StateDone || st == StateFailed || st == StateCancelled
}

// SubmitRequest is the POST /studies body. App must name one of the
// Table I applications; zero-valued tuning fields take the paper's
// defaults (10 runs, 20 reps). Priority places the job in a scheduling
// band: higher starts first, equal bands start in submission order. A
// pointer so that an explicit `"priority": 0` is distinguishable from an
// omitted field, which takes the server's default band.
type SubmitRequest struct {
	App        string `json:"app"`
	Threads    int    `json:"threads"`
	Vectorised bool   `json:"vectorised"`
	Runs       int    `json:"runs,omitempty"`
	Reps       int    `json:"reps,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	MaxK       int    `json:"max_k,omitempty"`
	Priority   *int   `json:"priority,omitempty"`
}

// Progress counts a job's completed units of work (discovery runs,
// collections, validations). UnitsDone increases monotonically from 0 to
// UnitsTotal while the job runs.
type Progress struct {
	UnitsDone  int `json:"units_done"`
	UnitsTotal int `json:"units_total"`
}

// JobStatus is the wire representation of one job.
type JobStatus struct {
	ID      string        `json:"id"`
	State   State         `json:"state"`
	Request SubmitRequest `json:"request"`
	// Priority is the effective scheduling band (the request's, or the
	// server default when the request left it zero).
	Priority int `json:"priority"`
	// Version increments on every visible change (state transitions,
	// progress updates). Long-pollers pass it back as ?since= so a wait
	// only returns on changes they have not seen.
	Version int64 `json:"version"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// Progress tracks a started job's completed units.
	Progress *Progress `json:"progress,omitempty"`
	// Error explains a failed or cancelled job.
	Error string `json:"error,omitempty"`
	// Summary digests a finished study.
	Summary *core.Summary `json:"summary,omitempty"`
	// Sweep names the sweep this job is a member of, for jobs submitted
	// through POST /studies:batch.
	Sweep string `json:"sweep,omitempty"`
}

// Health is the GET /healthz body.
type Health struct {
	Status string `json:"status"`
	// UptimeSeconds is how long this server process has been up.
	UptimeSeconds float64       `json:"uptime_seconds"`
	Workers       int           `json:"workers"`
	Jobs          map[State]int `json:"jobs"`
	// QueueDepth is the number of submitted-but-unstarted jobs;
	// QueueByPriority breaks it down per scheduling band (bands with
	// queued jobs only — JSON object keys are the band numbers).
	QueueDepth      int         `json:"queue_depth"`
	QueueByPriority map[int]int `json:"queue_by_priority,omitempty"`
	// Sweeps counts batch sweeps per state (queued/running/…), so
	// operators see sweep backlog alongside the per-job queue depths.
	Sweeps map[State]int     `json:"sweeps,omitempty"`
	Cache  resultcache.Stats `json:"cache"`
	// Distributed reports per-worker health and dispatch counters when
	// the server runs with a remote worker fleet; nil in local mode.
	Distributed *sched.RemoteStats `json:"distributed,omitempty"`
}

// job is the server-side record behind a JobStatus.
type job struct {
	mu     sync.Mutex
	status JobStatus
	result *core.StudyResult
	// changed, when non-nil, is closed at the next visible change; it is
	// allocated lazily by the first long-poller waiting on this job.
	changed chan struct{}
	// cancel aborts the running study's context; non-nil only while the
	// job runs.
	cancel context.CancelFunc
	// cancelRequested records a DELETE, so the executor can tell a
	// cancelled study apart from one that failed on its own, and skip a
	// job whose cancellation raced with its dequeue.
	cancelRequested bool
	// memberOf/memberIdx tie a batch-submitted job to its sweep and its
	// index in the sweep's plan; nil/0 for ordinary submissions. Set
	// before the job is published, immutable after.
	memberOf  *sweep
	memberIdx int
	// carries marks a sweep's queue carrier: the pseudo-job that holds
	// the sweep's place in the priority queue. Carriers never appear in
	// the job list.
	carries *sweep
}

// bumpLocked records a visible change: the version increments and any
// long-pollers waiting on the previous state wake. Callers hold j.mu.
func (j *job) bumpLocked() {
	j.status.Version++
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
}

// waitChanLocked returns the channel closed at the next visible change.
// Callers hold j.mu.
func (j *job) waitChanLocked() <-chan struct{} {
	if j.changed == nil {
		j.changed = make(chan struct{})
	}
	return j.changed
}

// snapshot returns a copy of the status safe to use outside j.mu. The
// Progress field is deep-copied: the executor mutates it in place while
// handlers encode snapshots.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

// snapshotLocked is snapshot for callers already holding j.mu.
func (j *job) snapshotLocked() JobStatus {
	st := j.status
	if st.Progress != nil {
		p := *st.Progress
		st.Progress = &p
	}
	return st
}

func (j *job) setID(id string) {
	j.mu.Lock()
	j.status.ID = id
	j.mu.Unlock()
}

// setProgress folds one scheduler progress report into the status.
// Reports can be observed out of order across workers, so only a higher
// done count is kept — GET /studies/{id} sees units_done increase
// monotonically.
func (j *job) setProgress(done, total int) {
	j.mu.Lock()
	if p := j.status.Progress; p != nil && done > p.UnitsDone {
		p.UnitsDone = done
		p.UnitsTotal = total
		j.bumpLocked()
	}
	j.mu.Unlock()
}

// state reads just the lifecycle phase, without the full status copy.
func (j *job) state() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.State
}

// finish moves the job to a terminal state.
func (j *job) finish(at time.Time, st State, err error) {
	j.mu.Lock()
	j.status.State = st
	j.status.FinishedAt = &at
	if err != nil {
		j.status.Error = err.Error()
	}
	j.bumpLocked()
	j.mu.Unlock()
}

// Config sizes a Server.
type Config struct {
	// Workers bounds per-study unit concurrency (sched.Options.Workers);
	// <= 0 means GOMAXPROCS.
	Workers int
	// Executors is how many studies run concurrently (default 2). Total
	// parallelism is roughly Executors × Workers.
	Executors int
	// QueueDepth bounds the submission queue (default 64); a full queue
	// rejects submissions with 503.
	QueueDepth int
	// CacheSize bounds the result cache in entries
	// (default resultcache.DefaultMaxEntries).
	CacheSize int
	// CacheBytes optionally bounds the in-memory result cache by its
	// approximate size in bytes (0 = entry bound only).
	CacheBytes int64
	// CacheDir, when non-empty, backs the result cache with a persistent
	// store rooted at that directory: results survive restarts and are
	// shared with other processes pointed at the same directory.
	CacheDir string
	// CacheMaxBytes bounds the persistent store's on-disk size
	// (0 = unbounded). Only meaningful with CacheDir.
	CacheMaxBytes int64
	// MaxJobs bounds how many job records are retained (default 1024).
	// When exceeded, the oldest finished jobs are pruned; queued and
	// running jobs are never dropped.
	MaxJobs int
	// DefaultPriority is the scheduling band given to submissions that
	// leave the priority field zero.
	DefaultPriority int
	// WorkerURLs lists remote unit workers ("host:port" or full URLs).
	// Non-empty enables distributed execution: study units are dispatched
	// to the fleet via sched.RemoteExecutor, falling back to local
	// execution when no worker is healthy.
	WorkerURLs []string
	// WorkerInflight bounds concurrent units dispatched per remote
	// worker (default 4). Only meaningful with WorkerURLs.
	WorkerInflight int
	// MaxSweepStudies bounds how many member studies one POST
	// /studies:batch may carry (default 64).
	MaxSweepStudies int
	// Now overrides the clock, for tests. Defaults to time.Now.
	Now func() time.Time
	// Log sinks server diagnostics (job transitions, dispatch failures,
	// encoding errors) as structured events and backs the coordinator's
	// GET /debug/events ring. Defaults to obs.DefaultLogger (JSONL on
	// stderr).
	Log *obs.Logger
}

// Submission sanity bounds. The paper's configurations are 10 runs and
// 20 reps; these caps leave generous experimentation headroom while
// keeping a single request from exhausting the process (a huge Runs
// allocates a slice per run and a huge Reps multiplies simulation work).
// MaxPriority bounds the band in both directions so a client cannot
// starve everything with MaxInt.
const (
	MaxRuns     = 1000
	MaxReps     = 10000
	MaxThreads  = 1024
	MaxMaxK     = 1000
	MaxPriority = 100
)

// Server queues, executes, and reports studies. Create with New, expose
// with Handler, stop with Close.
type Server struct {
	opts       sched.Options
	cache      *resultcache.Cache
	remote     *sched.RemoteExecutor // nil in local mode
	now        func() time.Time
	log        *obs.Logger
	defaultPri int

	// Observability: the process-wide metric registry (served at
	// GET /metrics), the per-study span tracer (GET /studies/{id}/trace),
	// the process start time behind uptime, and the per-state job
	// transition counter.
	reg       *obs.Registry
	tracer    *obs.Tracer
	start     time.Time
	jobsTotal *obs.CounterVec

	ctx    context.Context
	cancel context.CancelFunc
	queue  *jobQueue
	wg     sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string
	nextID  int
	maxJobs int

	// Batch sweeps: records behind GET /sweeps/{id}, retention order,
	// sizing, and the bp_sweep_* metric handles (see sweep.go).
	sweeps          map[string]*sweep
	sweepOrder      []string
	nextSweepID     int
	maxSweepStudies int
	sweepsTotal     *obs.CounterVec
	sweepStudies    *obs.Histogram
	sweepPlanSecs   *obs.Histogram
	sweepPlanned    *obs.Counter
	sweepDeduped    *obs.Counter
	sweepSubsumed   *obs.Counter
}

// New starts a Server with cfg's sizing. The only fallible part is
// opening the persistent cache store when CacheDir is set.
func New(cfg Config) (*Server, error) {
	if cfg.Executors <= 0 {
		cfg.Executors = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Log == nil {
		cfg.Log = obs.DefaultLogger()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	// The default band obeys the same bound as client-supplied
	// priorities, or default traffic could outrank every explicit band.
	cfg.DefaultPriority = min(max(cfg.DefaultPriority, -MaxPriority), MaxPriority)
	var store resultcache.Store
	if cfg.CacheDir != "" {
		st, err := cachestore.Open(cfg.CacheDir, cachestore.Options{MaxBytes: cfg.CacheMaxBytes})
		if err != nil {
			return nil, fmt.Errorf("service: opening cache store: %w", err)
		}
		store = st
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts: sched.Options{Workers: cfg.Workers},
		cache: resultcache.NewWith(resultcache.Config{
			MaxEntries: cfg.CacheSize,
			MaxBytes:   cfg.CacheBytes,
			Store:      store,
			Log:        cfg.Log,
		}),
		now:        cfg.Now,
		log:        cfg.Log,
		defaultPri: cfg.DefaultPriority,
		reg:        obs.NewRegistry(),
		tracer:     obs.NewTracer(64, 4096),
		start:      cfg.Now(),
		ctx:        ctx,
		cancel:     cancel,
		queue:      newJobQueue(cfg.QueueDepth),
		jobs:       make(map[string]*job),
		sweeps:     make(map[string]*sweep),
	}
	s.maxJobs = cfg.MaxJobs
	s.maxSweepStudies = cfg.MaxSweepStudies
	if s.maxSweepStudies <= 0 {
		s.maxSweepStudies = 64
	}
	s.opts.Cache = s.cache
	s.opts.Metrics = sched.NewMetrics(s.reg)
	s.jobsTotal = s.reg.CounterVec("bp_jobs_total",
		"Job state transitions, by the state entered.", "state")
	s.reg.GaugeFunc("bp_uptime_seconds", "Seconds since the server started.",
		func() float64 { return s.now().Sub(s.start).Seconds() })
	s.queue.instrument(queueMetrics{
		depth: s.reg.GaugeVec("bp_queue_depth",
			"Submitted-but-unstarted jobs, by priority band.", "band"),
		wait: s.reg.HistogramVec("bp_queue_wait_seconds",
			"Time jobs spent queued before an executor claimed them, by priority band.",
			nil, "band"),
		now: s.now,
	})
	registerCacheMetrics(s.reg, s.cache)
	s.registerSweepMetrics()
	if len(cfg.WorkerURLs) > 0 {
		// Distributed mode: units go to the fleet, with the server's own
		// cache as the dispatch-side memo and the fallback's substrate.
		s.remote = sched.NewRemoteExecutor(cfg.WorkerURLs, sched.RemoteOptions{
			PerWorkerInflight: cfg.WorkerInflight,
			Cache:             s.cache,
			Log:               cfg.Log,
			Registry:          s.reg,
		})
		s.opts.Executor = s.remote
	}
	for i := 0; i < cfg.Executors; i++ {
		s.wg.Add(1)
		go s.execute()
	}
	return s, nil
}

// Close stops the service: the queue is closed first (new submissions are
// rejected with 503), running studies are cancelled, and once the
// executors exit the jobs still queued are marked cancelled. Closing the
// queue before waiting means no job can slip in after the drain and sit
// "queued" forever with no executor left to run it. Finally the result
// cache is closed, which flushes pending write-behinds to the persistent
// store — results computed just before shutdown survive the restart.
func (s *Server) Close() {
	drained := s.queue.close()
	s.cancel()
	s.wg.Wait()
	for _, j := range drained {
		if sw := j.carries; sw != nil {
			s.abortQueuedSweep(sw, errServerClosed)
			continue
		}
		s.markTerminal(j, StateCancelled, errServerClosed)
	}
	if err := s.cache.Close(); err != nil {
		s.log.Error(context.Background(), "cache store close failed", "err", err)
	}
}

// noteTransition counts one job state transition and logs it as one
// structured event: study, state, app, priority, plus duration (start →
// finish, or submit → finish for jobs that never started) and error on
// terminal states.
func (s *Server) noteTransition(j *job, st State) {
	s.jobsTotal.With(string(st)).Inc()
	snap := j.snapshot()
	kv := []any{
		"job", snap.ID,
		"state", string(st),
		"app", snap.Request.App,
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
	s.log.Log(context.Background(), level, "study transition", kv...)
}

// markTerminal finishes the job and records the transition.
func (s *Server) markTerminal(j *job, st State, err error) {
	j.finish(s.now(), st, err)
	s.noteTransition(j, st)
}

// execute is one executor goroutine: it pops jobs in priority order until
// the queue closes.
func (s *Server) execute() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		if j.carries != nil {
			s.runSweep(j.carries)
			continue
		}
		s.runJob(j)
	}
}

// runJob drives one job through running → done/failed/cancelled.
func (s *Server) runJob(j *job) {
	started := s.now()
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()

	j.mu.Lock()
	if j.cancelRequested {
		// DELETE raced with the dequeue: honour it before doing any work.
		j.status.State = StateCancelled
		j.status.FinishedAt = &started
		j.status.Error = context.Canceled.Error()
		j.bumpLocked()
		j.mu.Unlock()
		s.noteTransition(j, StateCancelled)
		return
	}
	j.cancel = cancel
	j.status.State = StateRunning
	j.status.StartedAt = &started
	id := j.status.ID
	req := j.status.Request
	cfg := studyConfig(req)
	j.status.Progress = &Progress{UnitsTotal: sched.StudyUnits(cfg)}
	j.bumpLocked()
	j.mu.Unlock()
	s.noteTransition(j, StateRunning)

	// The study root span: every unit, cache probe and dispatch below
	// attaches as a descendant via the context.
	root := s.tracer.StartJob(id).Root("study")
	root.SetAttr("app", req.App)
	root.SetAttr("threads", strconv.Itoa(req.Threads))
	root.SetAttr("runs", strconv.Itoa(cfg.Runs))
	ctx = obs.ContextWithSpan(ctx, root)

	res, err := s.runStudy(ctx, j, req.App, cfg)

	j.mu.Lock()
	j.cancel = nil
	wasCancelled := j.cancelRequested
	j.mu.Unlock()

	final := StateDone
	switch {
	case err == nil:
		finished := s.now()
		summary := res.Summarise()
		j.mu.Lock()
		j.status.State = StateDone
		j.status.FinishedAt = &finished
		j.status.Summary = &summary
		j.result = res
		j.bumpLocked()
		j.mu.Unlock()
		s.noteTransition(j, StateDone)
	case errors.Is(err, context.Canceled) && (wasCancelled || s.ctx.Err() != nil):
		// Cancelled via DELETE, or the server shut down underneath the
		// study: either way the study was stopped, it did not fail.
		final = StateCancelled
		s.markTerminal(j, StateCancelled, err)
	default:
		final = StateFailed
		s.markTerminal(j, StateFailed, err)
	}
	root.SetAttr("state", string(final))
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	root.End()
}

// runStudy executes the job's study on the scheduler with a per-job
// progress callback.
func (s *Server) runStudy(ctx context.Context, j *job, app string, cfg core.StudyConfig) (*core.StudyResult, error) {
	a, err := apps.ByName(app)
	if err != nil {
		return nil, err
	}
	opts := s.opts
	opts.Progress = j.setProgress
	return sched.Run(ctx, sched.StudyRequest{
		App:    a.Name,
		Build:  a.Build,
		Config: cfg,
	}, opts)
}

// validateSubmit checks one study submission's fields and resolves its
// effective scheduling band; submit and the batch endpoint share it.
func (s *Server) validateSubmit(req SubmitRequest) (int, error) {
	if _, err := apps.ByName(req.App); err != nil {
		return 0, err
	}
	if req.Threads <= 0 || req.Threads > MaxThreads {
		return 0, fmt.Errorf("service: threads must be in [1, %d], got %d", MaxThreads, req.Threads)
	}
	for _, lim := range []struct {
		name string
		v    int
		max  int
	}{
		{"runs", req.Runs, MaxRuns},
		{"reps", req.Reps, MaxReps},
		{"max_k", req.MaxK, MaxMaxK},
	} {
		if lim.v < 0 || lim.v > lim.max {
			return 0, fmt.Errorf("service: %s must be in [0, %d], got %d", lim.name, lim.max, lim.v)
		}
	}
	pri := s.defaultPri
	if req.Priority != nil {
		if *req.Priority < -MaxPriority || *req.Priority > MaxPriority {
			return 0, fmt.Errorf("service: priority must be in [%d, %d], got %d", -MaxPriority, MaxPriority, *req.Priority)
		}
		pri = *req.Priority
	}
	return pri, nil
}

// studyConfig maps a submission's tuning fields onto a StudyConfig.
func studyConfig(req SubmitRequest) core.StudyConfig {
	return core.StudyConfig{
		Threads:    req.Threads,
		Vectorised: req.Vectorised,
		Runs:       req.Runs,
		Reps:       req.Reps,
		Seed:       req.Seed,
		MaxK:       req.MaxK,
	}
}

// submit validates and enqueues one study, returning its initial status.
func (s *Server) submit(req SubmitRequest) (JobStatus, int, error) {
	pri, err := s.validateSubmit(req)
	if err != nil {
		return JobStatus{}, http.StatusBadRequest, err
	}

	j := &job{status: JobStatus{
		State:       StateQueued,
		Request:     req,
		Priority:    pri,
		SubmittedAt: s.now(),
	}}
	// Enqueue before registering: a rejected submission must not leave a
	// phantom failed job behind (retry storms against a full queue would
	// otherwise flood the job list and prune real finished studies).
	if err := s.queue.push(j, pri); err != nil {
		if errors.Is(err, errQueueFull) {
			err = fmt.Errorf("%w (%d pending)", err, s.queue.len())
		}
		return JobStatus{}, http.StatusServiceUnavailable, err
	}
	s.mu.Lock()
	s.nextID++
	j.setID(fmt.Sprintf("s-%06d", s.nextID))
	s.jobs[j.status.ID] = j
	s.order = append(s.order, j.status.ID)
	s.pruneJobs()
	s.mu.Unlock()
	s.noteTransition(j, StateQueued)
	return j.snapshot(), http.StatusAccepted, nil
}

// cancelJob cancels one job: a still-queued job is removed from the queue
// and terminal immediately; a running job has its context cancelled and
// winds down at the next unit boundary (202 — poll for "cancelled").
// Cancelling an already-cancelled job is a no-op; done/failed jobs
// conflict.
func (s *Server) cancelJob(j *job) (JobStatus, int, error) {
	// Sweep members never sit in the queue themselves; their cancellation
	// goes through the sweep's plan.
	if j.memberOf != nil {
		return s.cancelMember(j)
	}
	// Pull it from the queue first (queue lock only — never nested with
	// j.mu). Success means no executor will ever see the job.
	if s.queue.remove(j) {
		j.mu.Lock()
		j.cancelRequested = true
		j.mu.Unlock()
		s.markTerminal(j, StateCancelled, errors.New("service: cancelled before start"))
		return j.snapshot(), http.StatusOK, nil
	}
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
	if j.cancel != nil {
		j.cancel()
	}
	j.mu.Unlock()
	// Queued-but-claimed (an executor popped it but has not started it)
	// is handled by runJob's cancelRequested check; running jobs stop at
	// the next unit boundary.
	return j.snapshot(), http.StatusAccepted, nil
}

// pruneJobs drops the oldest finished jobs once the retention bound is
// exceeded, so a long-running server does not accumulate StudyResults
// without limit. The caller holds s.mu. Queued and running jobs are kept
// even beyond the bound (the queue depth caps how many those can be).
func (s *Server) pruneJobs() {
	excess := len(s.order) - s.maxJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if excess > 0 && s.jobs[id].state().terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// lookup returns the job for an ID.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// snapshotJobs copies the job list out of s.mu, then snapshots each job
// outside it: job snapshots take the per-job lock, and holding the server
// lock across every per-job lock would serialise list/health handlers
// against all executors at once.
func (s *Server) snapshotJobs() []JobStatus {
	s.mu.Lock()
	js := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		js = append(js, s.jobs[id])
	}
	s.mu.Unlock()
	statuses := make([]JobStatus, 0, len(js))
	for _, j := range js {
		statuses = append(statuses, j.snapshot())
	}
	return statuses
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /studies", s.handleSubmit)
	mux.HandleFunc("POST /studies:batch", s.handleBatchSubmit)
	mux.HandleFunc("GET /studies", s.handleList)
	mux.HandleFunc("GET /sweeps", s.handleSweepList)
	mux.HandleFunc("GET /sweeps/{id}", s.handleSweepStatus)
	mux.HandleFunc("DELETE /sweeps/{id}", s.handleSweepCancel)
	mux.HandleFunc("GET /sweeps/{id}/trace", s.handleSweepTrace)
	mux.HandleFunc("GET /studies/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /studies/{id}", s.handleCancel)
	mux.HandleFunc("GET /studies/{id}/report", s.handleReport)
	mux.HandleFunc("GET /studies/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.Handle("GET /debug/events", s.log.Handler())
	return obs.InstrumentHandler(s.reg, "bp_http_request_seconds", mux)
}

// maxSubmitBytes bounds a POST /studies or POST /studies:batch body. A
// batch at MaxSweepStudies' default of 64 members is a few KiB, so 1 MiB
// rejects nothing legitimate while stopping an oversized body before it
// is decoded.
const maxSubmitBytes = 1 << 20

// decodeSubmission decodes a submission body into v, rejecting unknown
// fields and bodies over maxSubmitBytes. On failure it returns the status
// to answer with: 413 for an oversized body, 400 otherwise.
func decodeSubmission(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, err
		}
		return http.StatusBadRequest, err
	}
	return 0, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if code, err := decodeSubmission(w, r, &req); err != nil {
		s.writeError(w, code, fmt.Errorf("service: decoding submission: %w", err))
		return
	}
	status, code, err := s.submit(req)
	if err != nil {
		s.writeError(w, code, err)
		return
	}
	s.writeJSON(w, code, status)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.snapshotJobs())
}

// maxLongPoll caps how long one status request may be held open; longer
// waits simply return the unchanged status and the client re-issues.
const maxLongPoll = 2 * time.Minute

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown study %q", r.PathValue("id")))
		return
	}
	q := r.URL.Query()
	waitStr := q.Get("wait")
	if waitStr == "" {
		s.writeJSON(w, http.StatusOK, j.snapshot())
		return
	}
	wait, err := time.ParseDuration(waitStr)
	if err != nil || wait < 0 {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("service: wait must be a non-negative duration, got %q", waitStr))
		return
	}
	wait = min(wait, maxLongPoll)
	// since is the last version the client saw; absent, the wait watches
	// for the next change from the status as of this request.
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
		j.mu.Lock()
		st := j.snapshotLocked()
		ch := j.waitChanLocked()
		j.mu.Unlock()
		if since < 0 {
			since = st.Version
		}
		// A terminal job can never change again: return rather than hold
		// the request open for nothing.
		if st.Version > since || st.State.terminal() {
			s.writeJSON(w, http.StatusOK, st)
			return
		}
		select {
		case <-ch:
		case <-timer.C:
			s.writeJSON(w, http.StatusOK, st)
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown study %q", r.PathValue("id")))
		return
	}
	status, code, err := s.cancelJob(j)
	if err != nil {
		s.writeError(w, code, err)
		return
	}
	s.writeJSON(w, code, status)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown study %q", r.PathValue("id")))
		return
	}
	// State and result must be read under one lock acquisition: a job
	// observed done must come with its (already set) result.
	j.mu.Lock()
	st, res := j.snapshotLocked(), j.result
	j.mu.Unlock()
	if st.State == StateRunning {
		// A running job's report is not ready, but its progress is.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusConflict)
		renderProgress(w, st)
		return
	}
	if st.State != StateDone {
		s.writeError(w, http.StatusConflict,
			fmt.Errorf("service: study %s is %s, report needs %s", st.ID, st.State, StateDone))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	renderReport(w, res)
}

// handleTrace serves the span tree recorded for one study — as a nested
// JSON tree by default, or one span per line with ?format=jsonl. Traces
// exist once a job starts and are retained for the most recent jobs only,
// so a 404 here can mean not-started as well as evicted.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.lookup(id); !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown study %q", id))
		return
	}
	jt, ok := s.tracer.Job(id)
	if !ok {
		s.writeError(w, http.StatusNotFound,
			fmt.Errorf("service: no trace for study %s (not started, or evicted)", id))
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

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	counts := map[State]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCancelled: 0,
	}
	for _, st := range s.snapshotJobs() {
		counts[st.State]++
	}
	h := Health{
		Status:          "ok",
		UptimeSeconds:   s.now().Sub(s.start).Seconds(),
		Workers:         s.opts.Workers,
		Jobs:            counts,
		QueueDepth:      s.queue.len(),
		QueueByPriority: s.queue.bands(),
		Sweeps:          s.sweepCounts(),
		Cache:           s.cache.Stats(),
	}
	if s.remote != nil {
		stats := s.remote.Stats()
		h.Distributed = &stats
	}
	s.writeJSON(w, http.StatusOK, h)
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The header is already out, so the client sees a truncated body;
		// the event log is the only place the cause survives.
		s.log.Error(context.Background(), "response encode failed",
			"code", strconv.Itoa(code), "err", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	s.writeJSON(w, code, map[string]string{"error": err.Error()})
}
