package sched

import (
	"context"
	"fmt"

	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/resultcache"
	"barrierpoint/internal/trace"
)

// StudyRequest names one sweep member: a workload, its builder, and what
// to run on it. That is the whole study Config describes, unless one of
// Discovery and Collect names a single step instead.
type StudyRequest struct {
	App    string
	Build  core.ProgramBuilder
	Config core.StudyConfig
	// Discovery, when set, makes the member Step 2 alone: the discovery
	// runs, whose sets the member's outcome carries.
	Discovery *core.DiscoveryConfig
	// Collect, when set, makes the member one native collection (Step 3),
	// which the member's outcome carries.
	Collect *core.CollectConfig
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
	return programFPs{}.of(app, build, threads, v)
}

// programFPs memoises fingerprints by the built program, not by app name.
// Registry builders return one cached program per (threads, variant), so
// their fingerprints are hashed once, while a wrapped builder such as
// core.CoarsenBuilder's builds a program of its own and is hashed as
// itself: two builders under one app name never alias.
type programFPs map[programFP]string

type programFP struct {
	app  string
	prog *trace.Program
}

// of builds app's program for one variant and returns its fingerprint.
func (m programFPs) of(app string, build core.ProgramBuilder, threads int, v isa.Variant) (string, error) {
	prog, err := build(threads, v)
	if err != nil {
		return "", fmt.Errorf("sched: fingerprinting %s (%s): %w", app, v, err)
	}
	k := programFP{app, prog}
	fp, ok := m[k]
	if !ok {
		fp = string(resultcache.NewKey(app, prog.Fingerprint()))
		m[k] = fp
	}
	return fp, nil
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

// traceKey addresses the memory trace a collection's counters come from:
// the program content, and the cache hierarchy the resolved machine
// builds at the collection's thread count (topology, geometry,
// prefetcher). Nothing else reaches the simulation, so the key leaves
// out the variant's vectorisation (the four variants of an evaluated app
// share one fingerprint), the repetitions, the noise seed, the overhead,
// the multiplex groups and the machine's timing model: sibling
// collections that differ only there replay one trace. A thread count
// the machine cannot map, or an ISA no platform executes, keys no trace.
//
//bp:keyfields core.CollectConfig -Reps -Seed -Overhead -MultiplexGroups
func traceKey(fp string, cfg core.CollectConfig) (resultcache.Key, error) {
	m := cfg.Machine
	if m == nil {
		var err error
		if m, err = machine.Lookup(cfg.Variant.ISA); err != nil {
			return "", err
		}
	}
	hier, err := m.HierarchyConfig(cfg.Threads)
	if err != nil {
		return "", err
	}
	return resultcache.NewKey("memtrace", fp, fmt.Sprintf("%+v", hier)), nil
}

// studyKeyFrom returns the content-addressed key under which the sweep
// compiler caches a whole study's result, for Run and batch submission
// alike: the program content for both collection variants (workloads
// like HPGMG-FV build different programs per ISA) plus the normalised
// configuration. Anything that can change the StudyResult — including
// the simulated program itself — is folded in, so entries in a
// persistent store go stale (and recompute) when the workload or
// configuration changes instead of silently serving old results.
func studyKeyFrom(fpX86, fpARM string, cfg core.StudyConfig) resultcache.Key {
	return resultcache.NewKey("study", fpX86, fpARM, fmt.Sprintf("%#v", cfg))
}

// StudyUnits returns how many units of work a study decomposes into: one
// per discovery run and one per native collection. Validation is not a
// unit: it is the member's assembly once they have all landed. It is the
// denominator of a member's SweepOptions.Progress reports, computed from
// the request alone so callers can display a total before execution
// starts.
func StudyUnits(cfg core.StudyConfig) int {
	cfg = cfg.WithDefaults()
	return cfg.Runs + 2
}

// Run executes the full Section V workflow for one workload. It runs the
// same per-unit primitives as core.RunStudy — the canonical discovery
// run, the jittered re-runs and both native collections — as a
// one-member sweep plan: CompileSweep decomposes the request into typed
// UnitRequests resolved by opts' Executor (in-process by default, a
// remote worker fleet with RemoteExecutor) and answers a whole-study hit
// from opts.Cache, and Execute releases each unit across opts.Workers
// goroutines as soon as its dependencies land. Once the last unit lands,
// the study scores every set against both collections in run order and
// assembles, in process, so the same request yields a byte-identical
// *core.StudyResult for any worker count and any executor backend; a
// failing study reports its lowest-ranked failing unit, or else its first
// set that fails to score.
func Run(ctx context.Context, req StudyRequest, opts Options) (*core.StudyResult, error) {
	if req.Discovery != nil || req.Collect != nil {
		return nil, fmt.Errorf("sched: Run runs a whole study, not one step of %s", req.App)
	}
	out := runMember(ctx, req, opts)
	return out.Result, out.Err
}

// Collect runs (or recalls) one native counter collection (Step 3) as a
// one-member plan, as Run does a study: the collection is one unit,
// resolved by opts' Executor.
func Collect(ctx context.Context, req CollectRequest, opts Options) (*core.Collection, error) {
	out := runMember(ctx, StudyRequest{App: req.App, Build: req.Build, Collect: &req.Config}, opts)
	return out.Col, out.Err
}

// runMember compiles req into a one-member plan and executes it. A fresh
// plan executes once, and the member's outcome carries any cancellation,
// so Execute's own error adds nothing.
func runMember(ctx context.Context, req StudyRequest, opts Options) StudyOutcome {
	plan, err := CompileSweep(ctx, []StudyRequest{req}, opts)
	if err != nil {
		return StudyOutcome{Err: err}
	}
	outs, _ := plan.Execute(ctx, SweepOptions{})
	return outs[0]
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
