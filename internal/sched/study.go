package sched

import (
	"context"
	"fmt"

	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/resultcache"
)

// StudyRequest names one study execution: a workload, its builder, and
// the study configuration.
type StudyRequest struct {
	App    string
	Build  core.ProgramBuilder
	Config core.StudyConfig
}

// DiscoverRequest names one discovery execution (Step 2 only).
type DiscoverRequest struct {
	App    string
	Build  core.ProgramBuilder
	Config core.DiscoveryConfig
}

// CollectRequest names one native collection execution (Step 3 only).
type CollectRequest struct {
	App    string
	Build  core.ProgramBuilder
	Config core.CollectConfig
}

// baselineArtifact is the cached outcome of the canonical discovery run.
type baselineArtifact struct {
	set  core.BarrierPointSet
	base *core.LDVBaseline
}

// fingerprint content-addresses a workload for one binary variant: a hash
// of the app name and the program's structural content. Keying on
// program content (not just the name) keeps two different custom builders
// registered under the same name from aliasing in the cache, and keying
// per variant matters for workloads whose program depends on the
// architecture (HPGMG-FV). Building a program is cheap relative to
// simulating it.
func fingerprint(app string, build core.ProgramBuilder, threads int, v isa.Variant) (string, error) {
	prog, err := build(threads, v)
	if err != nil {
		return "", fmt.Errorf("sched: fingerprinting %s (%s): %w", app, v, err)
	}
	return string(resultcache.NewKey(app, prog.Fingerprint())), nil
}

// discKey addresses one discovery run. cfg.Runs is deliberately zeroed:
// an individual run's outcome does not depend on how many sibling runs a
// caller asked for, so a 10-run discovery shares all its units with an
// earlier 3-run one.
func discKey(kind, fp string, cfg core.DiscoveryConfig, run int) resultcache.Key {
	cfg.Runs = 0
	return resultcache.NewKey(kind, fp, fmt.Sprintf("%#v run=%d", cfg, run))
}

// collectKey addresses one native counter collection. The key spells the
// fields out rather than hashing the whole struct because CollectConfig
// carries pointer overrides (Overhead, Machine) that need to be keyed by
// value. The variant's ISA must be non-nil. The annotation holds the
// hand-spelled key exhaustive: bpvet fails the build if CollectConfig
// grows a field this function does not read.
//
//bp:keyfields core.CollectConfig
func collectKey(fp string, cfg core.CollectConfig) resultcache.Key {
	keyCfg := cfg.WithDefaults()
	// 0 and 1 multiplex groups both mean "multiplexing disabled" in papi,
	// so they share a key.
	mux := keyCfg.MultiplexGroups
	if mux <= 1 {
		mux = 0
	}
	overhead := ""
	if cfg.Overhead != nil {
		overhead = fmt.Sprintf("%+v", *cfg.Overhead)
	}
	return resultcache.NewKey("collection", fp, cfg.Variant.String(),
		fmt.Sprintf("t=%d r=%d s=%d mux=%d", keyCfg.Threads, keyCfg.Reps, keyCfg.Seed, mux),
		machineKeyPart(cfg.Machine), overhead)
}

// StudyKey returns the content-addressed key under which Run caches the
// whole study's result: the program content for both collection variants
// (workloads like HPGMG-FV build different programs per ISA) plus the
// normalised configuration. Anything that can change the StudyResult —
// including the simulated program itself — is folded in, so entries in a
// persistent store go stale (and recompute) when the workload or
// configuration changes instead of silently serving old results.
func StudyKey(req StudyRequest) (resultcache.Key, error) {
	cfg := req.Config.WithDefaults()
	colCfgs := cfg.Collections()
	fpX86, err := fingerprint(req.App, req.Build, cfg.Threads, colCfgs[0].Variant)
	if err != nil {
		return "", err
	}
	fpARM, err := fingerprint(req.App, req.Build, cfg.Threads, colCfgs[1].Variant)
	if err != nil {
		return "", err
	}
	return studyKeyFrom(fpX86, fpARM, cfg), nil
}

// studyKeyFrom builds the whole-study cache key from precomputed
// fingerprints; StudyKey and the sweep compiler share it so batch and
// serial submission address identical cache entries.
func studyKeyFrom(fpX86, fpARM string, cfg core.StudyConfig) resultcache.Key {
	return resultcache.NewKey("study", fpX86, fpARM, fmt.Sprintf("%#v", cfg))
}

// StudyUnits returns how many units of work a study decomposes into: one
// per discovery run, one per native collection, one per set validation.
// It is the denominator of Options.Progress reports for Run, computed from
// the request alone so callers can display a total before execution
// starts.
func StudyUnits(cfg core.StudyConfig) int {
	cfg = cfg.WithDefaults()
	return 2*cfg.Runs + 2
}

// Run executes the full Section V workflow for one workload. It runs the
// same per-unit primitives as core.RunStudy — the canonical discovery
// run, the jittered re-runs, both native collections, and the per-set
// validations — as a one-member sweep plan: CompileSweep decomposes the
// request into typed UnitRequests resolved by opts' Executor (in-process
// by default, a remote worker fleet with RemoteExecutor) and answers a
// whole-study hit from opts.Cache, and Execute releases each unit across
// opts.Workers goroutines as soon as its dependencies land. Results are
// assembled in unit order, so the same request yields a byte-identical
// *core.StudyResult for any worker count and any executor backend; a
// failing study reports its lowest-ranked failing unit.
func Run(ctx context.Context, req StudyRequest, opts Options) (*core.StudyResult, error) {
	plan, err := CompileSweep(ctx, []StudyRequest{req}, opts)
	if err != nil {
		return nil, err
	}
	out := plan.executeMember(ctx)
	return out.Result, out.Err
}

// Discover runs (or recalls) Step 2 as a one-member plan of discovery
// units: the canonical baseline run, then the jittered runs released
// behind it with bounded concurrency. Results are in discovery-run order
// and byte-identical to core.Discover's for any worker count or executor
// backend.
func Discover(ctx context.Context, req DiscoverRequest, opts Options) ([]core.BarrierPointSet, error) {
	if req.Build == nil {
		return nil, fmt.Errorf("sched: discovery for %s has no program builder", req.App)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := req.Config.WithDefaults()
	fp, err := fingerprint(req.App, req.Build, cfg.Threads,
		isa.Variant{ISA: isa.X8664(), Vectorised: cfg.Vectorised})
	if err != nil {
		return nil, err
	}
	st := &sweepStudy{app: req.App, build: req.Build, discCfg: cfg, discover: true,
		total: cfg.Runs, sets: make([]core.BarrierPointSet, cfg.Runs)}
	p := &SweepPlan{opts: opts, studies: []*sweepStudy{st}, byKey: map[resultcache.Key]*plannedUnit{}}
	baseline, err := p.addUnit(st, 0, UnitRequest{
		Kind: UnitDiscoverBaseline, App: req.App, FP: fp,
		Discovery: &st.discCfg, Build: req.Build,
	}, nil)
	if err == nil {
		_, err = p.planJittered(st, fp, baseline)
	}
	if err != nil {
		return nil, err
	}
	if out := p.executeMember(ctx); out.Err != nil {
		return nil, out.Err
	}
	return st.sets, nil
}

// Collect runs (or recalls) one native counter collection (Step 3): a
// single unit, resolved by opts' Executor without a plan.
func Collect(ctx context.Context, req CollectRequest, opts Options) (*core.Collection, error) {
	if req.Build == nil {
		return nil, fmt.Errorf("sched: collection for %s has no program builder", req.App)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if req.Config.Variant.ISA == nil {
		// Matches core.Collect's validation; checked here first because
		// the cache key renders the variant.
		return nil, fmt.Errorf("core: collection needs a binary variant")
	}
	fp, err := fingerprint(req.App, req.Build, req.Config.Threads, req.Config.Variant)
	if err != nil {
		return nil, err
	}
	v, err := instrument(ctx, opts.executor(), opts.Metrics).ExecuteUnit(ctx, UnitRequest{
		Kind: UnitCollect, App: req.App, FP: fp,
		Collect: &req.Config, Build: req.Build,
	})
	if err == nil {
		err = artifactError(UnitCollect, v)
	}
	if err != nil {
		return nil, err
	}
	if opts.Progress != nil {
		opts.Progress(1, 1)
	}
	return v.(*core.Collection), nil
}

// machineKeyPart renders a Machine override by value for cache keying.
// Machine's ISA and CPU fields are pointers to pure-value structs, so
// they are dereferenced into the text; keying by name alone would alias
// two same-named machines with tweaked parameters.
func machineKeyPart(m *machine.Machine) string {
	if m == nil {
		return ""
	}
	mm := *m
	mm.ISA, mm.CPU = nil, nil
	return fmt.Sprintf("%+v isa=%+v cpu=%+v", mm, *m.ISA, *m.CPU)
}
