package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"barrierpoint/internal/cachestore"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/resultcache"
)

// UnitResponse is the wire envelope a worker returns for one executed
// unit: the artifact serialised with its registered cachestore codec.
// Reusing the codec registry means anything the persistent store can
// spill, the fleet can ship — one serialisation story for disk and wire.
type UnitResponse struct {
	Codec string `json:"codec"`
	Data  []byte `json:"data"`
	// Spans is the worker's completed span subtree for this unit, present
	// only when the request carried a trace context. The coordinator
	// grafts it under the originating dispatch span (re-based onto the
	// dispatch window — worker clocks are never trusted).
	Spans []obs.SpanRecord `json:"spans,omitempty"`
}

// Worker response statuses with protocol meaning beyond the usual HTTP
// reading. A worker distinguishes "this unit cannot run here" (reject —
// the coordinator should not retry other workers, but may fall back to
// local execution) from "this unit ran and its computation failed"
// (permanent — retrying or falling back would fail identically) from
// transport-level trouble (retry elsewhere, quarantine the worker).
const (
	// StatusUnitRejected is returned for units this worker can never
	// execute: unknown app, unknown kind, fingerprint mismatch.
	StatusUnitRejected = http.StatusConflict
	// StatusUnitFailed is returned when the unit executed and its
	// computation returned an error. The error is deterministic — the
	// same request fails everywhere — so the coordinator propagates it.
	StatusUnitFailed = http.StatusUnprocessableEntity
)

// unitError is the JSON error body workers return alongside non-200s.
type unitError struct {
	Error string `json:"error"`
}

// RemoteOptions configure a RemoteExecutor.
type RemoteOptions struct {
	// PerWorkerInflight bounds concurrent units dispatched to one worker
	// (default 4). Dispatch blocks (honouring ctx) when the chosen
	// worker is at its limit, providing backpressure per worker.
	PerWorkerInflight int
	// Cache, when non-nil, short-circuits dispatch for artifacts already
	// in memory and keeps remotely computed artifacts for later units —
	// the coordinator-side half of fleet-wide dedupe. Units no worker can
	// execute fall back to a LocalExecutor over the same Cache.
	Cache *resultcache.Cache
	// Log sinks dispatch diagnostics (worker failures, fallbacks,
	// quarantines) as structured events carrying job, unit kind, worker
	// and span correlation IDs. Defaults to obs.DefaultLogger (JSONL on
	// stderr).
	Log *obs.Logger
	// Registry, when non-nil, receives the executor's dispatch metrics:
	// attempt latency by outcome, retry/fallback/quarantine counters, and
	// per-worker inflight/units/failures series.
	Registry *obs.Registry
}

const (
	// firstBackoff is a worker's quarantine after its first transport
	// failure; it doubles per consecutive failure up to maxBackoff. A
	// quarantined worker is skipped until its deadline passes, then
	// retried.
	firstBackoff = 500 * time.Millisecond
	// maxBackoff caps a worker's quarantine, however many transport
	// failures in a row it has had.
	maxBackoff = 30 * time.Second
	// unitTimeout bounds one dispatch attempt. It is the stall detector: a
	// worker that accepted a unit and then froze (SIGSTOP, blackholed
	// connection) produces no transport error on its own, and without a
	// bound the unit would wait on it forever instead of quarantining the
	// worker and retrying elsewhere. It sits far above the slowest unit.
	unitTimeout = 15 * time.Minute
)

// remoteMetrics are the dispatch-side instrumentation handles. The zero
// value (every handle nil) is a valid no-op.
type remoteMetrics struct {
	dispatchSeconds *obs.HistogramVec // outcome
	remoteUnits     *obs.Counter
	fallbacks       *obs.Counter
	retries         *obs.Counter
	quarantines     *obs.CounterVec // worker
	workerInflight  *obs.GaugeVec   // worker
	workerUnits     *obs.CounterVec // worker
	workerFailures  *obs.CounterVec // worker
}

func newRemoteMetrics(reg *obs.Registry) remoteMetrics {
	if reg == nil {
		return remoteMetrics{}
	}
	return remoteMetrics{
		dispatchSeconds: reg.HistogramVec("bp_dispatch_seconds",
			"Remote unit dispatch attempt latency in seconds by outcome (ok, transport, busy, rejected, failed).",
			obs.DefBuckets, "outcome"),
		remoteUnits: reg.Counter("bp_dispatch_remote_units_total",
			"Units resolved by the worker fleet."),
		fallbacks: reg.Counter("bp_dispatch_fallbacks_total",
			"Units resolved by the local fallback executor."),
		retries: reg.Counter("bp_dispatch_retries_total",
			"Dispatches that failed on one worker and moved to another."),
		quarantines: reg.CounterVec("bp_dispatch_quarantines_total",
			"Transport failures that quarantined a worker, by worker.", "worker"),
		workerInflight: reg.GaugeVec("bp_dispatch_worker_inflight",
			"Units currently dispatched to each worker.", "worker"),
		workerUnits: reg.CounterVec("bp_dispatch_worker_units_total",
			"Units each worker completed successfully.", "worker"),
		workerFailures: reg.CounterVec("bp_dispatch_worker_failures_total",
			"Transport-level dispatch failures by worker.", "worker"),
	}
}

// remoteWorker is the dispatch state for one worker process.
type remoteWorker struct {
	url string
	sem chan struct{}

	mu          sync.Mutex
	consecFails int
	downUntil   time.Time
	units       uint64 // completed successfully
	failures    uint64 // transport failures
}

// available reports whether the worker is out of quarantine.
func (w *remoteWorker) available(now time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !now.Before(w.downUntil)
}

// succeeded clears the failure streak.
func (w *remoteWorker) succeeded() {
	w.mu.Lock()
	w.consecFails = 0
	w.downUntil = time.Time{}
	w.units++
	w.mu.Unlock()
}

// failed records a transport failure and quarantines the worker with
// exponential backoff.
func (w *remoteWorker) failed(now time.Time) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failures++
	d := firstBackoff << w.consecFails
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	w.consecFails++
	w.downUntil = now.Add(d)
	return d
}

// WorkerHealth is one worker's dispatch-side health snapshot.
type WorkerHealth struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Inflight is how many units this coordinator currently has
	// dispatched to the worker.
	Inflight int `json:"inflight"`
	// Units counts successfully completed dispatches, Failures the
	// transport-level ones.
	Units    uint64 `json:"units"`
	Failures uint64 `json:"failures"`
	// DownUntil is the quarantine deadline of an unhealthy worker.
	DownUntil *time.Time `json:"down_until,omitempty"`
}

// RemoteStats snapshots a RemoteExecutor's dispatch counters.
type RemoteStats struct {
	Workers []WorkerHealth `json:"workers"`
	// RemoteUnits counts units resolved by the fleet, LocalFallbacks
	// units resolved by the fallback executor, Retries dispatches that
	// failed on one worker and moved to another.
	RemoteUnits    uint64 `json:"remote_units"`
	LocalFallbacks uint64 `json:"local_fallbacks"`
	Retries        uint64 `json:"retries"`
}

// RemoteExecutor resolves unit requests by dispatching them over HTTP to
// a fleet of worker processes (cmd/bpworker), POSTing each request to
// /units and decoding the codec-serialised artifact in the response.
//
// Routing is content-addressed: a unit's cache key hashes to a preferred
// worker, so re-executions and overlapping studies land where the
// artifact already lives. Every dispatched unit carries its dependency
// artifacts, so no unit needs a particular worker. A transport failure
// quarantines the worker with exponential backoff and retries the unit on
// the next worker in the ring; when every worker is down, the fleet
// rejects the unit or stays saturated, execution falls back to a
// LocalExecutor over RemoteOptions.Cache, so a coordinator with a dead
// fleet degrades to exactly the single-process behaviour. Safe for
// concurrent use.
type RemoteExecutor struct {
	workers  []*remoteWorker
	fallback *LocalExecutor
	cache    *resultcache.Cache
	log      *obs.Logger
	metrics  remoteMetrics

	mu             sync.Mutex
	remoteUnits    uint64
	localFallbacks uint64
	retries        uint64
}

// ParseWorkerList splits a comma-separated worker address list, dropping
// blanks and validating that each entry looks like an address (host:port
// or a URL). The validation catches, e.g., a bare worker *count* passed
// where addresses are expected — misdispatching every unit to
// "http://16/units" would quietly degrade to local fallback.
func ParseWorkerList(s string) ([]string, error) {
	var out []string
	for _, a := range strings.Split(s, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.Contains(a, ":") {
			return nil, fmt.Errorf("sched: worker address %q is not host:port or a URL", a)
		}
		out = append(out, a)
	}
	return out, nil
}

// NewRemoteExecutor returns an executor dispatching to the given workers.
// Addresses may be bare "host:port" (http:// is assumed) or full URLs.
// The list must be non-empty; duplicates are kept (they act as extra
// dispatch slots for the same process).
func NewRemoteExecutor(workerAddrs []string, opts RemoteOptions) *RemoteExecutor {
	if opts.PerWorkerInflight <= 0 {
		opts.PerWorkerInflight = 4
	}
	if opts.Log == nil {
		opts.Log = obs.DefaultLogger()
	}
	e := &RemoteExecutor{
		fallback: &LocalExecutor{Cache: opts.Cache},
		cache:    opts.Cache,
		log:      opts.Log,
		metrics:  newRemoteMetrics(opts.Registry),
	}
	for _, addr := range workerAddrs {
		addr = strings.TrimSuffix(strings.TrimSpace(addr), "/")
		if addr == "" {
			continue
		}
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		e.workers = append(e.workers, &remoteWorker{
			url: addr,
			sem: make(chan struct{}, opts.PerWorkerInflight),
		})
	}
	return e
}

// Workers returns how many workers the executor dispatches to.
func (e *RemoteExecutor) Workers() int { return len(e.workers) }

// Stats snapshots the dispatch counters and per-worker health.
func (e *RemoteExecutor) Stats() RemoteStats {
	now := time.Now()
	st := RemoteStats{Workers: make([]WorkerHealth, 0, len(e.workers))}
	for _, w := range e.workers {
		w.mu.Lock()
		h := WorkerHealth{
			URL:      w.url,
			Healthy:  !now.Before(w.downUntil),
			Inflight: len(w.sem),
			Units:    w.units,
			Failures: w.failures,
		}
		if !h.Healthy {
			t := w.downUntil
			h.DownUntil = &t
		}
		w.mu.Unlock()
		st.Workers = append(st.Workers, h)
	}
	e.mu.Lock()
	st.RemoteUnits, st.LocalFallbacks, st.Retries = e.remoteUnits, e.localFallbacks, e.retries
	e.mu.Unlock()
	return st
}

// affinity maps a unit key onto a preferred worker index (FNV-1a over the
// hex key). The key is already a uniform content hash, so consecutive
// units spread while identical units always prefer the same worker.
func affinity(key resultcache.Key, n int) int {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}

// ExecuteUnit implements Executor: dispatch the unit to its preferred
// worker, retry the ring on transport failure, fall back to local
// execution when the fleet cannot resolve the unit.
func (e *RemoteExecutor) ExecuteUnit(ctx context.Context, req UnitRequest) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key, err := req.Key()
	if err != nil {
		return nil, err
	}
	if e.cache != nil {
		if v, ok := e.cache.Get(key); ok {
			return v, nil
		}
	}
	n := len(e.workers)
	if n == 0 {
		return e.fallbackUnit(ctx, req, nil)
	}
	// The unit's dependency artifacts travel with it, serialised once here
	// rather than per dispatch attempt. One no codec covers keeps the unit
	// local, as a rejection does.
	if err := req.encodeDeps(); err != nil {
		return e.fallbackUnit(ctx, req, err)
	}
	start := affinity(key, n)
	var lastErr error
	// A saturated-but-healthy fleet (429s, or every inflight slot taken)
	// means capacity, not death: the ring is re-swept after a short pause
	// rather than treated like a dead fleet, a bounded number of times,
	// since offloading locally beats waiting.
	const (
		busyPasses = 8
		busyWait   = 250 * time.Millisecond
	)
	for pass := 0; ; pass++ {
		sawBusy := false
		for attempt := 0; attempt < n; attempt++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			w := e.workers[(start+attempt)%n]
			if !w.available(time.Now()) {
				continue
			}
			v, err, verdict := e.tryWorker(ctx, w, req)
			switch verdict {
			case unitOK:
				e.mu.Lock()
				e.remoteUnits++
				e.mu.Unlock()
				e.metrics.remoteUnits.Inc()
				e.metrics.workerUnits.With(w.url).Inc()
				if e.cache != nil {
					e.cache.Put(key, v)
				}
				return v, nil
			case unitPermanent:
				// The unit ran and its computation failed; the failure is
				// a property of the request, not the worker.
				return nil, err
			case unitRejected:
				// This fleet cannot run the unit at all (custom builder,
				// version skew): local execution is the only option left.
				return e.fallbackUnit(ctx, req, err)
			case unitBusy:
				// The worker is healthy, just at capacity: no quarantine,
				// and no retry counted — nothing was dispatched yet.
				sawBusy = true
				lastErr = err
			case unitTransport:
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				d := w.failed(time.Now())
				e.log.Warn(ctx, "worker quarantined after transport failure",
					"worker", w.url, "kind", string(req.Kind), "backoff", d, "err", err)
				e.mu.Lock()
				e.retries++
				e.mu.Unlock()
				e.metrics.retries.Inc()
				e.metrics.quarantines.With(w.url).Inc()
				e.metrics.workerFailures.With(w.url).Inc()
				lastErr = err
			}
		}
		if !sawBusy || pass >= busyPasses {
			return e.fallbackUnit(ctx, req, lastErr)
		}
		select {
		case <-time.After(busyWait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// fallbackUnit resolves a unit the fleet could not, in process, logging
// the fleet's failure cause.
func (e *RemoteExecutor) fallbackUnit(ctx context.Context, req UnitRequest, cause error) (any, error) {
	e.mu.Lock()
	e.localFallbacks++
	e.mu.Unlock()
	e.metrics.fallbacks.Inc()
	if sp := obs.SpanFromContext(ctx); sp != nil {
		sp.SetAttr("fallback", "local")
	}
	if cause != nil {
		e.log.Warn(ctx, "executing unit locally, no worker available",
			"kind", string(req.Kind), "err", cause)
	}
	return e.fallback.ExecuteUnit(ctx, req)
}

// unitVerdict classifies one dispatch attempt.
type unitVerdict int

const (
	unitOK        unitVerdict = iota
	unitTransport             // network/5xx: retry elsewhere, quarantine
	unitBusy                  // 429: worker at capacity, retry elsewhere without quarantine
	unitRejected              // 409: fleet can never run this unit, fall back
	unitPermanent             // 422: computation failed deterministically
)

// String names the verdict for metric labels and span attributes.
func (v unitVerdict) String() string {
	switch v {
	case unitOK:
		return "ok"
	case unitTransport:
		return "transport"
	case unitBusy:
		return "busy"
	case unitRejected:
		return "rejected"
	case unitPermanent:
		return "failed"
	}
	return "unknown"
}

// tryWorker dispatches one unit to one worker, honouring its inflight
// bound. A worker with no free dispatch slot reports busy immediately
// instead of blocking — blocking would chain this unit to whatever is
// already queued on that worker (possibly a stalled one) while the rest
// of the ring sits idle; the caller's busy sweep handles the waiting.
func (e *RemoteExecutor) tryWorker(ctx context.Context, w *remoteWorker, req UnitRequest) (v any, err error, verdict unitVerdict) {
	start := time.Now()
	sp := obs.SpanFromContext(ctx).Child("dispatch")
	// Propagate the trace across the wire: the worker opens its own span
	// subtree under this dispatch span and returns it in the response.
	// req is a per-attempt copy, so each dispatch carries its own span.
	req.Trace = sp.WireContext()
	defer func() {
		e.metrics.dispatchSeconds.With(verdict.String()).Observe(time.Since(start).Seconds())
		if sp != nil {
			sp.SetAttr("worker", w.url)
			sp.SetAttr("outcome", verdict.String())
			sp.End()
		}
	}()
	select {
	case w.sem <- struct{}{}:
	default:
		return nil, fmt.Errorf("sched: all %d dispatch slots to %s in use", cap(w.sem), w.url), unitBusy
	}
	e.metrics.workerInflight.With(w.url).Inc()
	defer func() {
		e.metrics.workerInflight.With(w.url).Dec()
		<-w.sem
	}()

	// The stall bound: a frozen worker otherwise never errors, and
	// quarantine/retry only engage on an error.
	ctx, cancel := context.WithTimeout(ctx, unitTimeout)
	defer cancel()
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("sched: encoding %s unit: %w", req.Kind, err), unitRejected
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/units", bytes.NewReader(body))
	if err != nil {
		return nil, err, unitRejected
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		return nil, err, unitTransport
	}
	defer resp.Body.Close()

	switch {
	case resp.StatusCode == http.StatusOK:
		var ur UnitResponse
		if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
			return nil, fmt.Errorf("sched: decoding unit response from %s: %w", w.url, err), unitTransport
		}
		v, err := cachestore.Decode(ur.Codec, ur.Data)
		if err != nil {
			return nil, fmt.Errorf("sched: decoding %s artifact from %s: %w", ur.Codec, w.url, err), unitTransport
		}
		sp.GraftRemote(ur.Spans)
		w.succeeded()
		return v, nil, unitOK
	case resp.StatusCode == StatusUnitRejected:
		return nil, fmt.Errorf("sched: worker %s rejected %s unit: %s", w.url, req.Kind, readUnitError(resp.Body)), unitRejected
	case resp.StatusCode == StatusUnitFailed:
		return nil, fmt.Errorf("sched: %s unit failed on %s: %s", req.Kind, w.url, readUnitError(resp.Body)), unitPermanent
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, fmt.Errorf("sched: worker %s at capacity for %s unit", w.url, req.Kind), unitBusy
	default:
		// 5xx and other surprises: try the next worker.
		return nil, fmt.Errorf("sched: worker %s returned %s for %s unit: %s", w.url, resp.Status, req.Kind, readUnitError(resp.Body)), unitTransport
	}
}

// readUnitError extracts the error text from a non-200 worker response.
func readUnitError(r io.Reader) string {
	b, err := io.ReadAll(io.LimitReader(r, 4096))
	if err != nil || len(b) == 0 {
		return "(no body)"
	}
	var ue unitError
	if json.Unmarshal(b, &ue) == nil && ue.Error != "" {
		return ue.Error
	}
	return strings.TrimSpace(string(b))
}
