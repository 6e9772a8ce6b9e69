package sched

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/cachestore"
	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/resultcache"
)

// ErrBadUnit marks a structurally invalid unit request: unknown kind,
// missing configuration. Workers map it to a protocol-level reject (the
// requester may be a newer binary speaking a newer dialect — its
// coordinator can still execute the unit itself), never a compute
// failure.
var ErrBadUnit = errors.New("sched: malformed unit request")

// UnitKind names one of the four unit types a study decomposes into.
type UnitKind string

// The unit kinds. Every kind is a pure function of its request: the same
// request yields a byte-identical artifact wherever it executes, which is
// what makes units safe to ship to other processes.
const (
	// UnitDiscoverBaseline is the canonical (unjittered) discovery run.
	// Artifact: the run's BarrierPointSet plus the LDV baseline every
	// jittered run reuses.
	UnitDiscoverBaseline UnitKind = "discover-baseline"
	// UnitDiscoverJittered is one schedule-jittered discovery run.
	// Artifact: core.BarrierPointSet.
	UnitDiscoverJittered UnitKind = "discover-jittered"
	// UnitCollect is one native counter collection for one binary
	// variant. Artifact: *core.Collection.
	UnitCollect UnitKind = "collect"
	// UnitValidate scores one discovered set against both target
	// collections. Artifact: core.SetEvaluation.
	UnitValidate UnitKind = "validate"
)

// UnitRequest names one unit of study work. The JSON-visible fields fully
// describe the computation, so a request can be shipped to another process
// and executed there; the unexported-on-the-wire fields (Build and the
// dependency artifacts) are an in-process fast path that executors use
// when present and re-resolve from the visible coordinates when absent.
type UnitRequest struct {
	Kind UnitKind `json:"kind"`
	// App names the workload; executors without an in-band Build resolve
	// it through the apps registry.
	App string `json:"app"`
	// FP is the content fingerprint of the unit's program (the x86_64
	// variant for discovery and validation, the collect variant for
	// collections). A remote worker refuses a request whose fingerprint
	// does not match the program it resolves for App — the guard that
	// keeps a custom in-process builder from silently executing as the
	// registry app of the same name.
	FP string `json:"fp,omitempty"`
	// FPARM is the ARMv8 collection's program fingerprint (validate
	// units only; HPGMG-FV builds a different program per ISA).
	FPARM string `json:"fp_arm,omitempty"`
	// Discovery parameterises the discovery kinds and names the set a
	// validate unit scores.
	Discovery *core.DiscoveryConfig `json:"discovery,omitempty"`
	// Run is the discovery-run index: the jittered run to execute, or
	// the set a validate unit scores.
	Run int `json:"run,omitempty"`
	// Collect parameterises a collect unit.
	Collect *core.CollectConfig `json:"collect,omitempty"`
	// Collections are the two configurations a validate unit scores
	// against (x86_64 first).
	Collections *[2]core.CollectConfig `json:"collections,omitempty"`
	// InlineCols carries the two collection artifacts of a validate unit
	// codec-serialised in the request itself. The coordinator attaches
	// them when it already holds the collections, so a cold worker scores
	// the set immediately instead of recomputing (or disk-loading)
	// collections the coordinator just shipped it the configurations for.
	InlineCols *[2]InlineArtifact `json:"inline_cols,omitempty"`
	// Trace is the dispatch span's wire context, set per dispatch attempt
	// by the RemoteExecutor. A worker receiving it opens its own span
	// subtree for the unit and returns the completed records in
	// UnitResponse.Spans. Workers predating this field reject the request
	// (DisallowUnknownFields), which the coordinator absorbs as the usual
	// dialect-skew local fallback.
	Trace *obs.TraceContext `json:"trace,omitempty"`

	// In-band dependencies, never serialised: the coordinator populates
	// them from artifacts it already holds so local execution costs no
	// cache traffic; executors running elsewhere re-resolve them from the
	// request's coordinates through their own cache.
	Build core.ProgramBuilder   `json:"-"`
	Base  *core.LDVBaseline     `json:"-"`
	Set   *core.BarrierPointSet `json:"-"`
	Cols  [2]*core.Collection   `json:"-"`
}

// InlineArtifact is one dependency artifact serialised into a unit
// request with its cachestore codec — the same envelope unit responses
// use, pointed the other way.
type InlineArtifact struct {
	Codec string `json:"codec"`
	Data  []byte `json:"data"`
}

// attachInlineCols serialises the request's in-band collections into the
// wire-visible InlineCols field. Attaching is best-effort: a value no
// codec covers just ships without inline artifacts and the worker
// re-resolves, exactly as before.
func (r *UnitRequest) attachInlineCols() {
	if r.Kind != UnitValidate || r.InlineCols != nil ||
		r.Cols[0] == nil || r.Cols[1] == nil {
		return
	}
	var inline [2]InlineArtifact
	for i, col := range r.Cols {
		codec, data, err := cachestore.Encode(col)
		if err != nil {
			return
		}
		inline[i] = InlineArtifact{Codec: codec, Data: data}
	}
	r.InlineCols = &inline
}

// adoptInlineCols decodes wire-shipped collection artifacts into the
// in-band dependency slots. Decode failures (a codec this binary lacks,
// corrupt data) discard the inline copy and fall back to re-resolution —
// the request's visible coordinates still fully describe the unit.
func (r *UnitRequest) adoptInlineCols() {
	if r.InlineCols == nil {
		return
	}
	for i := range r.InlineCols {
		if r.Cols[i] != nil {
			continue
		}
		v, err := cachestore.Decode(r.InlineCols[i].Codec, r.InlineCols[i].Data)
		if err != nil {
			continue
		}
		if col, ok := v.(*core.Collection); ok {
			r.Cols[i] = col
		}
	}
}

// Key content-addresses the unit's artifact. Discovery and collection
// units reuse exactly the keys the scheduler has always cached under, so
// a distributed fleet sharing a cachestore directory dedupes against
// artifacts written by earlier local runs (and vice versa).
func (r *UnitRequest) Key() (resultcache.Key, error) {
	switch r.Kind {
	case UnitDiscoverBaseline, UnitDiscoverJittered:
		if r.Discovery == nil {
			return "", fmt.Errorf("%w: %s unit needs a discovery configuration", ErrBadUnit, r.Kind)
		}
		run := 0
		if r.Kind == UnitDiscoverJittered {
			run = r.Run
		}
		return discKey("discover", r.FP, r.Discovery.WithDefaults(), run), nil
	case UnitCollect:
		if r.Collect == nil {
			return "", fmt.Errorf("%w: collect unit needs a collect configuration", ErrBadUnit)
		}
		if r.Collect.Variant.ISA == nil {
			return "", fmt.Errorf("%w: collection needs a binary variant", ErrBadUnit)
		}
		return collectKey(r.FP, *r.Collect), nil
	case UnitValidate:
		if r.Discovery == nil || r.Collections == nil {
			return "", fmt.Errorf("%w: validate unit needs discovery and collection configurations", ErrBadUnit)
		}
		if r.Collections[0].Variant.ISA == nil || r.Collections[1].Variant.ISA == nil {
			return "", fmt.Errorf("%w: collection needs a binary variant", ErrBadUnit)
		}
		return resultcache.NewKey("validate", r.FP, r.FPARM,
			fmt.Sprintf("%#v run=%d", r.Discovery.WithDefaults(), r.Run),
			string(collectKey(r.FP, r.Collections[0])),
			string(collectKey(r.FPARM, r.Collections[1]))), nil
	default:
		return "", fmt.Errorf("%w: unknown unit kind %q", ErrBadUnit, r.Kind)
	}
}

// routingKey returns the key whose hash picks a remote unit's preferred
// worker; key is the unit's own artifact key. Most units route by their
// artifact, but a validate unit routes by its set's discovery key: the
// worker that ran that discovery already holds the most expensive
// dependency, so validation lands where re-resolution is cheapest.
func (r *UnitRequest) routingKey(key resultcache.Key) resultcache.Key {
	if r.Kind != UnitValidate || r.Discovery == nil {
		return key
	}
	return discKey("discover", r.FP, r.Discovery.WithDefaults(), r.Run)
}

// An Executor resolves unit requests to artifacts:
//
//	UnitDiscoverBaseline → BaselineArtifact (unexported; carries set+LDVs)
//	UnitDiscoverJittered → core.BarrierPointSet
//	UnitCollect          → *core.Collection
//	UnitValidate         → core.SetEvaluation
//
// Executors must be safe for concurrent use: the scheduler fans a study's
// independent units out across many goroutines against one executor.
type Executor interface {
	ExecuteUnit(ctx context.Context, req UnitRequest) (any, error)
}

// ErrFingerprintMismatch reports a wire-path unit whose program
// fingerprint does not match the program the executor resolves for the
// app name — typically a custom in-process builder that shadows a
// registry app, or version skew between coordinator and worker binaries.
// Remote workers refuse such units so the coordinator falls back to local
// execution instead of silently computing against the wrong program.
var ErrFingerprintMismatch = errors.New("sched: unit program fingerprint does not match this executor's program")

// LocalExecutor computes units in-process, memoising discovery and
// collection artifacts through an optional result cache. It is the
// default executor: the bounded worker pool around it is SweepPlan's,
// which Run and Discover execute through. The zero value is valid (no
// cache, apps-registry resolution).
type LocalExecutor struct {
	// Cache memoises discovery baselines, jittered sets and collections;
	// nil computes everything.
	Cache *resultcache.Cache
	// Resolve maps an app name to its program builder for requests that
	// arrive without an in-band Build (the wire path). Defaults to the
	// apps registry. Resolution must be stable: fingerprints of resolved
	// programs are memoised per (app, threads, variant).
	Resolve func(app string) (core.ProgramBuilder, error)

	// fpMemo caches resolved programs' fingerprints so wire-path
	// verification costs one program build per (app, threads, variant)
	// per process, not per request.
	fpMemo sync.Map // string → string
}

// resolveBuild returns the request's builder, resolving by app name for
// wire-path requests. Resolution verifies the request's fingerprints when
// present: a mismatch means this process would compute a different
// program than the requester fingerprinted, and the unit is refused.
func (e *LocalExecutor) resolveBuild(req *UnitRequest) (core.ProgramBuilder, error) {
	if req.Build != nil {
		return req.Build, nil
	}
	resolve := e.Resolve
	if resolve == nil {
		resolve = func(app string) (core.ProgramBuilder, error) {
			a, err := apps.ByName(app)
			if err != nil {
				return nil, err
			}
			return a.Build, nil
		}
	}
	build, err := resolve(req.App)
	if err != nil {
		return nil, err
	}
	if err := e.verifyFingerprints(req, build); err != nil {
		return nil, err
	}
	return build, nil
}

// memoFingerprint returns the fingerprint of the resolved app's program
// for one variant, building it only on the first request.
func (e *LocalExecutor) memoFingerprint(app string, build core.ProgramBuilder, threads int, v isa.Variant) (string, error) {
	memoKey := fmt.Sprintf("%s\x00%d\x00%s", app, threads, v)
	if fp, ok := e.fpMemo.Load(memoKey); ok {
		return fp.(string), nil
	}
	fp, err := fingerprint(app, build, threads, v)
	if err != nil {
		return "", err
	}
	e.fpMemo.Store(memoKey, fp)
	return fp, nil
}

// verifyFingerprints checks the request's program fingerprints against
// the programs build produces. Empty fingerprints are skipped (trusted
// in-process callers).
func (e *LocalExecutor) verifyFingerprints(req *UnitRequest, build core.ProgramBuilder) error {
	check := func(fp string, threads int, v isa.Variant) error {
		if fp == "" {
			return nil
		}
		got, err := e.memoFingerprint(req.App, build, threads, v)
		if err != nil {
			return err
		}
		if got != fp {
			return fmt.Errorf("%w (app %s, variant %s)", ErrFingerprintMismatch, req.App, v)
		}
		return nil
	}
	switch req.Kind {
	case UnitDiscoverBaseline, UnitDiscoverJittered:
		cfg := req.Discovery
		return check(req.FP, cfg.Threads, isa.Variant{ISA: isa.X8664(), Vectorised: cfg.Vectorised})
	case UnitCollect:
		return check(req.FP, req.Collect.Threads, req.Collect.Variant)
	case UnitValidate:
		if err := check(req.FP, req.Collections[0].Threads, req.Collections[0].Variant); err != nil {
			return err
		}
		return check(req.FPARM, req.Collections[1].Threads, req.Collections[1].Variant)
	}
	return nil
}

// ExecuteUnit implements Executor.
func (e *LocalExecutor) ExecuteUnit(ctx context.Context, req UnitRequest) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Validate the request (and derive the cache key) before touching the
	// builder, so malformed wire requests fail with a description rather
	// than a nil dereference.
	key, err := req.Key()
	if err != nil {
		return nil, err
	}
	// Wire-shipped dependency artifacts become in-band ones before
	// resolution, so a validate unit with inline collections skips the
	// collect recomputation entirely.
	req.adoptInlineCols()
	build, err := e.resolveBuild(&req)
	if err != nil {
		return nil, err
	}
	switch req.Kind {
	case UnitDiscoverBaseline:
		return e.baseline(ctx, key, req, build)
	case UnitDiscoverJittered:
		base := req.Base
		if base == nil {
			// Wire path: recover the canonical run's LDV baseline through
			// the cache (a shared store makes this a disk hit; otherwise
			// it is computed once per process and memoised).
			baseReq := req
			baseReq.Kind, baseReq.Run, baseReq.Base = UnitDiscoverBaseline, 0, nil
			baseKey, err := baseReq.Key()
			if err != nil {
				return nil, err
			}
			art, err := e.baseline(ctx, baseKey, baseReq, build)
			if err != nil {
				return nil, err
			}
			base = art.base
		}
		v, err := cachedDo(ctx, e.Cache, req.Kind, key, func() (any, error) {
			return core.DiscoverJittered(build, *req.Discovery, req.Run, base)
		})
		if err != nil {
			return nil, err
		}
		return v, nil
	case UnitCollect:
		v, err := cachedDo(ctx, e.Cache, req.Kind, key, func() (any, error) {
			return core.Collect(build, *req.Collect)
		})
		if err != nil {
			return nil, err
		}
		return v, nil
	case UnitValidate:
		return e.validate(ctx, req, build)
	}
	return nil, fmt.Errorf("%w: unknown unit kind %q", ErrBadUnit, req.Kind)
}

// cachedDo is Cache.Do with a trace span recording whether the artifact
// was computed or recalled. Traced studies see one "cache:<kind>" child
// per resolution under the unit's span; untraced paths pay one nil check.
func cachedDo(ctx context.Context, c *resultcache.Cache, kind UnitKind, key resultcache.Key, compute func() (any, error)) (any, error) {
	sp := obs.SpanFromContext(ctx).Child("cache:" + string(kind))
	v, hit, err := c.Do(key, compute)
	if sp != nil {
		sp.SetAttr("hit", strconv.FormatBool(hit))
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	return v, err
}

// baseline runs (or recalls) the canonical discovery run.
func (e *LocalExecutor) baseline(ctx context.Context, key resultcache.Key, req UnitRequest, build core.ProgramBuilder) (baselineArtifact, error) {
	v, err := cachedDo(ctx, e.Cache, UnitDiscoverBaseline, key, func() (any, error) {
		set, base, err := core.DiscoverBaseline(build, *req.Discovery)
		if err != nil {
			return nil, err
		}
		return baselineArtifact{set: set, base: base}, nil
	})
	if err != nil {
		return baselineArtifact{}, err
	}
	art, ok := v.(baselineArtifact)
	if !ok {
		// A cache entry of the wrong shape (e.g. written by a skewed
		// binary into a shared store) must surface as an error, not a
		// panic inside a worker's HTTP handler.
		return baselineArtifact{}, fmt.Errorf("sched: baseline artifact for %s has type %T", req.App, v)
	}
	return art, nil
}

// validate scores one discovered set against both collections, resolving
// any dependency artifact the request does not carry in-band. Validation
// itself is cheap once the dependencies exist, so its result is not
// cached locally — only the resolution of its inputs is.
func (e *LocalExecutor) validate(ctx context.Context, req UnitRequest, build core.ProgramBuilder) (any, error) {
	set := req.Set
	if set == nil {
		dep := req
		dep.Set, dep.Cols = nil, [2]*core.Collection{}
		if req.Run == 0 {
			dep.Kind, dep.Run = UnitDiscoverBaseline, 0
			v, err := e.ExecuteUnit(ctx, dep)
			if err != nil {
				return nil, err
			}
			art, ok := v.(baselineArtifact)
			if !ok {
				return nil, fmt.Errorf("sched: baseline artifact for %s has type %T", req.App, v)
			}
			set = &art.set
		} else {
			dep.Kind = UnitDiscoverJittered
			v, err := e.ExecuteUnit(ctx, dep)
			if err != nil {
				return nil, err
			}
			s, ok := v.(core.BarrierPointSet)
			if !ok {
				return nil, fmt.Errorf("sched: discovery artifact for %s has type %T", req.App, v)
			}
			set = &s
		}
	}
	cols := req.Cols
	for i := range cols {
		if cols[i] != nil {
			continue
		}
		fp := req.FP
		if i == 1 {
			fp = req.FPARM
		}
		dep := UnitRequest{
			Kind: UnitCollect, App: req.App, FP: fp,
			Collect: &req.Collections[i], Build: req.Build,
		}
		v, err := e.ExecuteUnit(ctx, dep)
		if err != nil {
			return nil, err
		}
		col, ok := v.(*core.Collection)
		if !ok {
			return nil, fmt.Errorf("sched: collection artifact for %s has type %T", req.App, v)
		}
		cols[i] = col
	}
	return core.EvaluateSet(req.App, req.Run, set, cols[0], cols[1])
}
