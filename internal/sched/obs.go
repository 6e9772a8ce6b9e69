package sched

import (
	"context"
	"fmt"
	"time"

	"barrierpoint/internal/obs"
)

// Metrics are the scheduler's instrumentation handles. Create once per
// process with NewMetrics and share via Options.Metrics; a nil *Metrics
// (and every nil handle inside one) is a valid no-op, so the scheduler
// costs nothing when unobserved.
type Metrics struct {
	// UnitSeconds is the execution latency of completed units by kind.
	UnitSeconds *obs.HistogramVec
	// UnitErrors counts failed units by kind.
	UnitErrors *obs.CounterVec
	// UnitsInflight is the worker-pool utilization: units executing right
	// now across all studies sharing these metrics.
	UnitsInflight *obs.Gauge
}

// NewMetrics registers the scheduler's metric families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		UnitSeconds: reg.HistogramVec("bp_sched_unit_seconds",
			"Study unit execution latency in seconds by unit kind.", obs.DefBuckets, "kind"),
		UnitErrors: reg.CounterVec("bp_sched_unit_errors_total",
			"Study units that returned an error, by unit kind.", "kind"),
		UnitsInflight: reg.Gauge("bp_sched_units_inflight",
			"Study units currently executing (worker-pool utilization)."),
	}
}

// obsExecutor is the one instrumentation seam every unit passes through:
// it wraps any Executor with a per-unit trace span (child of whatever
// span rides the context) and the unit latency/error/inflight metrics,
// then hands the span down via the context so the layers below (cache
// lookups, remote dispatch) attach their own children.
type obsExecutor struct {
	inner Executor
	m     *Metrics
}

// InstrumentExecutor wraps exec with per-unit metrics and trace spans.
// With a nil Metrics the wrapper still propagates spans, so traced
// studies work against an unmetered executor; wrapping an executor twice
// would double-count, so callers wrap exactly once per dispatch path.
func InstrumentExecutor(exec Executor, m *Metrics) Executor {
	return obsExecutor{inner: exec, m: m}
}

// ExecuteUnit implements Executor.
func (e obsExecutor) ExecuteUnit(ctx context.Context, req UnitRequest) (any, error) {
	sp := obs.SpanFromContext(ctx).Child("unit:" + string(req.Kind))
	if sp != nil {
		sp.SetAttr("app", req.App)
		if req.Kind == UnitDiscoverJittered {
			sp.SetAttr("run", fmt.Sprintf("%d", req.Run))
		}
		if req.Kind == UnitCollect && req.Collect != nil && req.Collect.Variant.ISA != nil {
			sp.SetAttr("variant", req.Collect.Variant.String())
		}
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	var m *Metrics
	if e.m != nil {
		m = e.m
		m.UnitsInflight.Inc()
	}
	start := time.Now()
	v, err := e.inner.ExecuteUnit(ctx, req)
	if m != nil {
		m.UnitsInflight.Dec()
		m.UnitSeconds.With(string(req.Kind)).Observe(time.Since(start).Seconds())
		if err != nil {
			m.UnitErrors.With(string(req.Kind)).Inc()
		}
	}
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	return v, err
}

// instrument wraps exec for one study execution when there is anything
// to observe: metrics handles, or a span riding the context.
func instrument(ctx context.Context, exec Executor, m *Metrics) Executor {
	if m == nil && obs.SpanFromContext(ctx) == nil {
		return exec
	}
	return InstrumentExecutor(exec, m)
}
