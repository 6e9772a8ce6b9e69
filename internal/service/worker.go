package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/cachestore"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/resultcache"
	"barrierpoint/internal/sched"
)

// WorkerConfig sizes a unit Worker.
type WorkerConfig struct {
	// MaxInflight bounds concurrently executing units; requests beyond
	// it are rejected with 429 so the coordinator dispatches elsewhere
	// (<= 0 means GOMAXPROCS).
	MaxInflight int
	// CacheSize bounds the worker's result cache in entries
	// (default resultcache.DefaultMaxEntries).
	CacheSize int
	// CacheBytes optionally bounds the in-memory cache by approximate
	// size in bytes (0 = entry bound only).
	CacheBytes int64
	// CacheDir, when non-empty, backs the cache with a persistent store.
	// Pointing the fleet and its coordinator at one shared directory is
	// what makes cross-study overlap dedupe fleet-wide: any process's
	// artifacts serve every other's misses.
	CacheDir string
	// CacheMaxBytes bounds the persistent store on disk (0 = unbounded).
	CacheMaxBytes int64
	// Log sinks worker diagnostics as structured events and backs the
	// GET /debug/events ring. Defaults to obs.DefaultLogger (JSONL on
	// stderr).
	Log *obs.Logger
}

// maxUnitBytes bounds a POST /units body. The only dependency artifact a
// unit carries is a jittered run's LDV baseline, so the largest
// legitimate body is an 8-thread LULESH jittered unit at about 1.4 MB
// (the next largest registry app, miniFE, is about 0.2 MB). The bound
// leaves room for larger signature dimensions and thread counts; a body
// over it is a 409, and the coordinator runs the unit itself.
const maxUnitBytes = 8 << 20

// workerTraceSpans bounds the per-unit span subtree a worker builds for
// a traced request. Units are shallow trees (recv, decode, compute with
// its cache/unit spans, encode), so a small ring is ample; anything
// beyond it rings away oldest-first, same as coordinator traces.
const workerTraceSpans = 512

// WorkerHealth is the worker's GET /healthz body.
type WorkerHealth struct {
	Status      string `json:"status"`
	Inflight    int    `json:"inflight"`
	MaxInflight int    `json:"max_inflight"`
	Units       uint64 `json:"units"`
	UnitErrors  uint64 `json:"unit_errors"`
	// Rejected counts units this worker can never execute (unknown app,
	// fingerprint mismatch, undecodable request) — the version-skew
	// signal. Busy counts routine 429 capacity pushback.
	Rejected  uint64            `json:"rejected"`
	Busy      uint64            `json:"busy"`
	UptimeSec int64             `json:"uptime_sec"`
	Cache     resultcache.Stats `json:"cache"`
}

// Worker executes study units shipped to it over HTTP (the fleet side of
// sched.RemoteExecutor). It wraps a sched.LocalExecutor around its own
// result cache: units are pure functions of their requests, so a worker
// needs no job state — just compute, memoise, serialise. Create with
// NewWorker, expose with Handler, stop with Close.
type Worker struct {
	exec     sched.Executor
	cache    *resultcache.Cache
	reg      *obs.Registry
	sem      chan struct{}
	log      *obs.Logger
	start    time.Time
	units    atomic.Uint64
	unitErrs atomic.Uint64
	rejected atomic.Uint64
	busy     atomic.Uint64
}

// NewWorker starts a Worker with cfg's sizing. The only fallible part is
// opening the persistent cache store when CacheDir is set.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if cfg.Log == nil {
		cfg.Log = obs.DefaultLogger()
	}
	var store resultcache.Store
	if cfg.CacheDir != "" {
		st, err := cachestore.Open(cfg.CacheDir, cachestore.Options{MaxBytes: cfg.CacheMaxBytes})
		if err != nil {
			return nil, fmt.Errorf("service: opening worker cache store: %w", err)
		}
		store = st
	}
	cache := resultcache.NewWith(resultcache.Config{
		MaxEntries: cfg.CacheSize,
		MaxBytes:   cfg.CacheBytes,
		Store:      store,
		Log:        cfg.Log,
	})
	reg := obs.NewRegistry()
	w := &Worker{
		// Every unit the worker executes flows through the same
		// instrumentation seam as the coordinator's: latency histograms by
		// kind, error counts, inflight gauge — under the same bp_sched_*
		// names, distinguished by which process is scraped.
		exec:  sched.InstrumentExecutor(&sched.LocalExecutor{Cache: cache}, sched.NewMetrics(reg)),
		cache: cache,
		reg:   reg,
		sem:   make(chan struct{}, cfg.MaxInflight),
		log:   cfg.Log,
		start: time.Now(),
	}
	// The protocol counters already live as atomics for /healthz; expose
	// them to scrapes without double accounting.
	reg.CounterFunc("bp_worker_units_total", "Units executed to completion by this worker.",
		func() float64 { return float64(w.units.Load()) })
	reg.CounterFunc("bp_worker_unit_errors_total", "Units whose computation failed on this worker.",
		func() float64 { return float64(w.unitErrs.Load()) })
	reg.CounterFunc("bp_worker_rejected_total", "Unit requests this worker can never execute (version skew).",
		func() float64 { return float64(w.rejected.Load()) })
	reg.CounterFunc("bp_worker_busy_total", "Unit requests pushed back with 429 at capacity.",
		func() float64 { return float64(w.busy.Load()) })
	reg.GaugeFunc("bp_worker_inflight", "Units currently executing on this worker.",
		func() float64 { return float64(len(w.sem)) })
	reg.GaugeFunc("bp_uptime_seconds", "Seconds since the worker started.",
		func() float64 { return time.Since(w.start).Seconds() })
	registerCacheMetrics(reg, cache)
	return w, nil
}

// Close flushes pending cache write-behinds and closes the backing store.
func (w *Worker) Close() error { return w.cache.Close() }

// CacheStats snapshots the worker's result cache counters.
func (w *Worker) CacheStats() resultcache.Stats { return w.cache.Stats() }

// Handler returns the worker's HTTP routes.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /units", w.handleUnit)
	mux.HandleFunc("GET /healthz", w.handleHealth)
	mux.Handle("GET /metrics", w.reg.Handler())
	mux.Handle("GET /debug/events", w.log.Handler())
	return obs.InstrumentHandler(w.reg, "bp_http_request_seconds", mux)
}

// handleUnit executes one unit request. Status codes are protocol:
// 409 (sched.StatusUnitRejected) means "this worker can never run this
// unit" — an undecodable or oversized body, unknown app or kind (a
// validate body too: scoring sets is a study's assembly step on the
// coordinator, not a unit), missing or malformed dependency artifacts, or
// a fingerprint mismatch proving the coordinator's program differs from
// this binary's; 422
// (sched.StatusUnitFailed) means the computation itself failed (a
// property of the request — retrying elsewhere would fail identically);
// 429 means at capacity. The coordinator maps them to fall-back, fail,
// and try-next-worker respectively.
func (w *Worker) handleUnit(rw http.ResponseWriter, r *http.Request) {
	recvStart := time.Now()
	var req sched.UnitRequest
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxUnitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		// A reject, not a plain 400 or 413: an undecodable or oversized
		// request usually means a coordinator speaking a newer dialect
		// (unknown fields), and a reject tells it to execute the unit
		// itself instead of quarantining this healthy worker as a
		// transport failure.
		err = fmt.Errorf("service: decoding unit request: %w", err)
		w.log.Warn(r.Context(), "unit rejected", "err", err)
		w.reject(rw, sched.StatusUnitRejected, err)
		return
	}
	decoded := time.Now()
	if _, err := apps.ByName(req.App); err != nil {
		w.log.Warn(r.Context(), "unit rejected",
			"job", jobOf(&req), "kind", string(req.Kind), "err", err)
		w.reject(rw, sched.StatusUnitRejected, err)
		return
	}
	select {
	case w.sem <- struct{}{}:
	default:
		w.busy.Add(1)
		w.writeJSON(rw, http.StatusTooManyRequests, unitErrorBody{Error: "service: worker at capacity"})
		return
	}
	defer func() { <-w.sem }()

	// A traced request gets its own span subtree, rooted at a recv span
	// that retroactively covers the decode above (the worker only learns
	// the unit is traced once it has decoded it). The completed records
	// travel back in the response for the coordinator to graft; offsets
	// are against this process's own epoch and get re-based there.
	var jt *obs.JobTrace
	var root *obs.Span
	ctx := r.Context()
	if tc := req.Trace; tc != nil {
		jt = obs.NewJobTrace(tc.Job, workerTraceSpans)
		root = jt.RootAt("recv", recvStart)
		root.SetAttr("kind", string(req.Kind))
		// Advisory only — the difference between this worker's wall clock
		// and the coordinator's dispatch timestamp mixes skew with real
		// transport latency, so it is surfaced as an attribute, never used
		// for re-basing.
		root.SetAttr("lag_us", strconv.FormatInt(recvStart.UnixMicro()-(tc.EpochUS+tc.StartUS), 10))
		root.ChildAt("decode", recvStart, decoded)
	}
	defer root.End()

	// The client disconnecting cancels r.Context(), which stops the unit
	// at its next internal boundary; the artifact of a unit that
	// completes anyway still lands in the cache for the retry.
	compute := root.Child("compute")
	v, err := w.exec.ExecuteUnit(obs.ContextWithSpan(ctx, compute), req)
	compute.End()
	if err != nil {
		switch {
		case errors.Is(err, sched.ErrFingerprintMismatch), errors.Is(err, sched.ErrBadUnit):
			// Requests this binary can never serve — wrong program, or a
			// dialect it does not speak (e.g. a newer coordinator's unit
			// kind). The coordinator can still execute them itself.
			w.log.Warn(ctx, "unit rejected",
				"job", jobOf(&req), "kind", string(req.Kind), "err", err)
			w.reject(rw, sched.StatusUnitRejected, err)
		case ctx.Err() != nil:
			// The requester is gone; nothing useful can be written, and a
			// routine cancellation is neither a rejection nor a failure —
			// operators alert on those counters.
		default:
			w.unitErrs.Add(1)
			w.log.Error(ctx, "unit failed",
				"job", jobOf(&req), "kind", string(req.Kind), "err", err)
			w.writeJSON(rw, sched.StatusUnitFailed, unitErrorBody{Error: err.Error()})
		}
		return
	}
	enc := root.Child("encode")
	codec, data, err := cachestore.Encode(v)
	if err != nil {
		enc.End()
		w.unitErrs.Add(1)
		w.log.Error(ctx, "unit artifact serialisation failed",
			"job", jobOf(&req), "kind", string(req.Kind), "err", err)
		w.writeJSON(rw, http.StatusInternalServerError,
			unitErrorBody{Error: fmt.Sprintf("service: serialising %s artifact: %v", req.Kind, err)})
		return
	}
	enc.End()
	resp := sched.UnitResponse{Codec: codec, Data: data}
	if jt != nil {
		// End the recv root before export so the subtree the coordinator
		// grafts is complete; the deferred End above is then a no-op.
		resp.Spans = root.EndExport()
	}
	w.units.Add(1)
	w.writeJSON(rw, http.StatusOK, resp)
}

// jobOf names the job a traced unit belongs to, for event correlation
// ("" for untraced units — the logger drops empty job values).
func jobOf(req *sched.UnitRequest) string {
	if req.Trace != nil {
		return req.Trace.Job
	}
	return ""
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	w.writeJSON(rw, http.StatusOK, WorkerHealth{
		Status:      "ok",
		Inflight:    len(w.sem),
		MaxInflight: cap(w.sem),
		Units:       w.units.Load(),
		UnitErrors:  w.unitErrs.Load(),
		Rejected:    w.rejected.Load(),
		Busy:        w.busy.Load(),
		UptimeSec:   int64(time.Since(w.start).Seconds()),
		Cache:       w.cache.Stats(),
	})
}

// unitErrorBody mirrors sched's unit error envelope.
type unitErrorBody struct {
	Error string `json:"error"`
}

func (w *Worker) reject(rw http.ResponseWriter, code int, err error) {
	w.rejected.Add(1)
	w.writeJSON(rw, code, unitErrorBody{Error: err.Error()})
}

func (w *Worker) writeJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	if err := json.NewEncoder(rw).Encode(v); err != nil {
		w.log.Error(context.Background(), "unit response encode failed",
			"code", strconv.Itoa(code), "err", err)
	}
}
