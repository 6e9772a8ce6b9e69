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
// and executed there. A unit's dependency artifacts travel with it: in
// process as the in-band Base/Set/Cols pointers, on the wire serialised
// in Deps. No executor recomputes a dependency; a jittered or validate
// unit that arrives without its artifacts is ErrBadUnit.
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
	// Deps carries the dependency artifacts the unit consumes, in a fixed
	// order: a jittered run's LDV baseline; a validate unit's set, then
	// its x86_64 and ARMv8 collections. RemoteExecutor serialises them
	// from the in-band fields once per unit, and a wire-path
	// LocalExecutor (no Build) decodes them back; in-process requests
	// never read it. Workers predating this field reject the request,
	// which the coordinator absorbs as the dialect-skew local fallback.
	Deps []InlineArtifact `json:"deps,omitempty"`
	// Trace is the dispatch span's wire context, set per dispatch attempt
	// by the RemoteExecutor. A worker receiving it opens its own span
	// subtree for the unit and returns the completed records in
	// UnitResponse.Spans. Workers predating this field reject the request
	// (DisallowUnknownFields), which the coordinator absorbs as the usual
	// dialect-skew local fallback.
	Trace *obs.TraceContext `json:"trace,omitempty"`

	// In-band fields, never serialised: the builder, and the dependency
	// artifacts the coordinator attaches from the units it already ran.
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

// deps returns the unit's in-band dependency artifacts in Deps order, or
// ErrBadUnit when one is missing.
func (r *UnitRequest) deps() ([]any, error) {
	var deps []any
	switch r.Kind {
	case UnitDiscoverJittered:
		if r.Base != nil {
			deps = []any{r.Base}
		}
	case UnitValidate:
		if r.Set != nil && r.Cols[0] != nil && r.Cols[1] != nil {
			deps = []any{*r.Set, r.Cols[0], r.Cols[1]}
		}
	default:
		return nil, nil
	}
	if deps == nil {
		return nil, fmt.Errorf("%w: %s unit without its dependency artifacts", ErrBadUnit, r.Kind)
	}
	return deps, nil
}

// encodeDeps serialises the in-band dependency artifacts into Deps.
func (r *UnitRequest) encodeDeps() error {
	deps, err := r.deps()
	if err != nil {
		return err
	}
	r.Deps = make([]InlineArtifact, len(deps))
	for i, v := range deps {
		if r.Deps[i].Codec, r.Deps[i].Data, err = cachestore.Encode(v); err != nil {
			return err
		}
	}
	return nil
}

// decodeDeps reverses encodeDeps on the wire path: the kind's artifacts,
// in order, or ErrBadUnit.
func (r *UnitRequest) decodeDeps() error {
	var set core.BarrierPointSet
	ok := len(r.Deps) == 0
	switch r.Kind {
	case UnitDiscoverJittered:
		ok = len(r.Deps) == 1 && decodeDep(r.Deps[0], &r.Base)
	case UnitValidate:
		ok = len(r.Deps) == 3 && decodeDep(r.Deps[0], &set) &&
			decodeDep(r.Deps[1], &r.Cols[0]) && decodeDep(r.Deps[2], &r.Cols[1])
		r.Set = &set
	}
	if !ok {
		return fmt.Errorf("%w: %s unit's dependency artifacts are missing or malformed (%d shipped)", ErrBadUnit, r.Kind, len(r.Deps))
	}
	return nil
}

// decodeDep decodes one wire dependency into *dst, reporting whether it
// decoded to dst's type.
func decodeDep[T any](a InlineArtifact, dst *T) bool {
	v, _ := cachestore.Decode(a.Codec, a.Data) // nil on error
	t, ok := v.(T)
	if ok {
		*dst = t
	}
	return ok
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

// LocalExecutor computes exactly the unit it is given, memoising
// discovery and collection artifacts through an optional result cache.
// It is the default executor: the bounded worker pool around it is
// SweepPlan's, which Run and Discover execute through. A request without
// a Build is the wire path: the builder is resolved by app name and the
// dependency artifacts are decoded from Deps. The zero value is valid (no
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
	if req.Build == nil {
		// The wire path: dependencies arrive serialised in Deps.
		if err := req.decodeDeps(); err != nil {
			return nil, err
		}
		if req.Kind == UnitDiscoverJittered {
			// The set depends on the shipped baseline as well as on the
			// coordinates, so the worker keys it by both: no request can
			// plant an artifact under a key its coordinates alone name.
			key = resultcache.NewKey(string(key), req.Deps[0].Codec, string(req.Deps[0].Data))
		}
	}
	if _, err := req.deps(); err != nil {
		return nil, err
	}
	build, err := e.resolveBuild(&req)
	if err != nil {
		return nil, err
	}
	switch req.Kind {
	case UnitDiscoverBaseline:
		return cachedDo(ctx, e.Cache, req.Kind, key, func() (any, error) {
			set, base, err := core.DiscoverBaseline(build, *req.Discovery)
			return baselineArtifact{set: set, base: base}, err
		})
	case UnitDiscoverJittered:
		return cachedDo(ctx, e.Cache, req.Kind, key, func() (any, error) {
			return core.DiscoverJittered(build, *req.Discovery, req.Run, req.Base)
		})
	case UnitCollect:
		return cachedDo(ctx, e.Cache, req.Kind, key, func() (any, error) {
			return core.Collect(build, *req.Collect)
		})
	case UnitValidate:
		// Validation is cheap once its dependencies exist, so its result
		// is not cached.
		return core.EvaluateSet(req.App, req.Run, req.Set, req.Cols[0], req.Cols[1])
	}
	return nil, fmt.Errorf("%w: unknown unit kind %q", ErrBadUnit, req.Kind)
}

// cachedDo is Cache.Do with a trace span recording whether the artifact
// was computed or recalled, and no artifact on error. Traced studies see
// one "cache:<kind>" child per resolution under the unit's span;
// untraced paths pay one nil check.
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
	if err != nil {
		return nil, err
	}
	return v, nil
}
