package sched

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/resultcache"
)

// PlanStats is the sweep compiler's accounting: how many units the sweep
// would have requested study-by-study (naive) versus how many the merged
// DAG actually executes. NaiveUnits = PlannedUnits + DedupedUnits +
// SubsumedUnits; whole-study cache hits request no units and count only
// in CachedStudies.
type PlanStats struct {
	// Studies is the number of member studies in the sweep.
	Studies int `json:"studies"`
	// CachedStudies are members answered entirely from the whole-study
	// cache: no units were planned for them.
	CachedStudies int `json:"cached_studies,omitempty"`
	// NaiveUnits is how many units serial one-at-a-time submission would
	// have requested from the unit layer.
	NaiveUnits int `json:"naive_units"`
	// PlannedUnits is how many units the merged DAG executes.
	PlannedUnits int `json:"planned_units"`
	// DedupedUnits are requested units dropped because an identical unit
	// (same key, same configuration) was already planned.
	DedupedUnits int `json:"deduped_units,omitempty"`
	// SubsumedUnits are requested discovery units dropped because a
	// sibling study's discovery subsumes them: a 10-run discovery shares
	// every per-run unit with a 3-run one (run outcomes do not depend on
	// the sibling count), so only the superset's runs are planned and
	// each study slices the runs it asked for.
	SubsumedUnits int `json:"subsumed_units,omitempty"`
}

// StudyOutcome is one member study's result or failure.
type StudyOutcome struct {
	Result *core.StudyResult
	Err    error
}

// SweepOptions configure one SweepPlan execution.
type SweepOptions struct {
	// OnStudy, when non-nil, streams member completions: it is called
	// exactly once per member, from whichever worker finished (or
	// cancelled) it, as soon as the member's outcome is known. Calls for
	// different members may arrive concurrently; OnStudy must not block.
	OnStudy func(study int, res *core.StudyResult, err error)
	// Progress, when non-nil, is called after each unit that advances a
	// member study (a discovery run or a collection) with that member's
	// done/total counts. Calls may arrive from concurrent workers; done
	// values are issued in increasing order but may be *observed* out of
	// order, so consumers that need monotonic display should keep a
	// running maximum. A whole-study cache hit reports total/total once.
	// Progress must not block: it runs on the worker that finished the
	// unit.
	Progress func(study, done, total int)
}

// unitConsumer names one member study waiting on a unit's artifact, the
// slot (run or collection index) the artifact lands in, and the unit's
// rank in the member's planning order, which decides which of several
// failures the member reports.
type unitConsumer struct {
	st   *sweepStudy
	slot int
	rank int
}

// plannedUnit is one node of the merged DAG: a unit request, the units it
// depends on (a jittered run's baseline), the units waiting on it, and
// every member study consuming its artifact. result is written by the
// executing worker before the unit's dependents are released, so
// dependents read it without locks; it stays nil when the unit failed or
// was skipped.
type plannedUnit struct {
	req        UnitRequest
	key        resultcache.Key
	deps       []*plannedUnit
	dependents []*plannedUnit
	consumers  []unitConsumer
	// waiting is the count of unfinished dependencies; guarded by the
	// plan mutex during execution.
	waiting int

	result any
}

// sweepStudy is one member study's assembly state: artifact slots filled
// by completing units, in unit order, and the member's lowest-ranked
// failure. Once every slot is filled, settle scores the sets against the
// collections and assembles the study.
type sweepStudy struct {
	idx     int
	app     string
	build   core.ProgramBuilder
	cfg     core.StudyConfig
	discCfg core.DiscoveryConfig
	colCfgs [2]core.CollectConfig
	key     resultcache.Key
	cached  *core.StudyResult
	// discover marks a Discover member: it plans discovery units only and
	// finishes with its sets, never assembled into a study.
	discover bool
	// total is the member's progress denominator.
	total int

	mu   sync.Mutex
	sets []core.BarrierPointSet
	cols [2]*core.Collection
	// remaining counts the member's units that have not surfaced yet.
	// While planning it counts the units requested so far, which ranks
	// each new one.
	remaining int
	done      int
	failed    *indexedErr
	cancelled bool
	finalized bool
	outcome   StudyOutcome
}

// SweepPlan is a whole experiment sweep compiled into one deduplicated
// unit DAG. Build one with CompileSweep, then Execute it once.
type SweepPlan struct {
	opts    Options
	studies []*sweepStudy
	units   []*plannedUnit
	byKey   map[resultcache.Key]*plannedUnit
	stats   PlanStats

	mu          sync.Mutex
	sopts       SweepOptions
	executing   bool
	outstanding int
	ready       chan *plannedUnit
}

// CompileSweep plans a whole sweep of studies as one global unit DAG
// before any execution: every member decomposes into typed UnitRequests
// (Run is a sweep of one), units are deduplicated across members by their
// content-addressed keys, discovery runs shared between different run
// counts are subsumed into the superset, and members already answered by
// opts.Cache are marked cached and plan nothing. The DAG preserves each
// member's assembly order, so Execute renders every member byte-identical
// to core.RunStudy's serial composition of the same request.
//
// Program fingerprints are memoised per (app, threads, variant) across
// the sweep, mirroring LocalExecutor's wire-path memo — builders must be
// stable per app name within one sweep.
func CompileSweep(ctx context.Context, reqs []StudyRequest, opts Options) (*SweepPlan, error) {
	p := &SweepPlan{opts: opts, byKey: map[resultcache.Key]*plannedUnit{}}
	p.stats.Studies = len(reqs)
	sp := obs.SpanFromContext(ctx).Child("plan")
	defer func() {
		if sp != nil {
			sp.SetAttr("studies", strconv.Itoa(p.stats.Studies))
			sp.SetAttr("cached_studies", strconv.Itoa(p.stats.CachedStudies))
			sp.SetAttr("naive_units", strconv.Itoa(p.stats.NaiveUnits))
			sp.SetAttr("planned_units", strconv.Itoa(p.stats.PlannedUnits))
			sp.SetAttr("deduped_units", strconv.Itoa(p.stats.DedupedUnits))
			sp.SetAttr("subsumed_units", strconv.Itoa(p.stats.SubsumedUnits))
			sp.End()
		}
	}()

	fpMemo := map[string]string{}
	memoFP := func(app string, build core.ProgramBuilder, threads int, v isa.Variant) (string, error) {
		memoKey := fmt.Sprintf("%s\x00%d\x00%s", app, threads, v)
		if fp, ok := fpMemo[memoKey]; ok {
			return fp, nil
		}
		fp, err := fingerprint(app, build, threads, v)
		if err != nil {
			return "", err
		}
		fpMemo[memoKey] = fp
		return fp, nil
	}

	for i, req := range reqs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if req.Build == nil {
			return nil, fmt.Errorf("sched: study %s has no program builder", req.App)
		}
		st := &sweepStudy{idx: i, app: req.App, build: req.Build, cfg: req.Config.WithDefaults()}
		st.discCfg = st.cfg.Discovery()
		st.colCfgs = st.cfg.Collections()
		fpX86, err := memoFP(req.App, req.Build, st.cfg.Threads, st.colCfgs[0].Variant)
		if err != nil {
			return nil, err
		}
		fpARM, err := memoFP(req.App, req.Build, st.cfg.Threads, st.colCfgs[1].Variant)
		if err != nil {
			return nil, err
		}
		st.key = studyKeyFrom(fpX86, fpARM, st.cfg)
		st.total = StudyUnits(st.cfg)
		p.studies = append(p.studies, st)
		if opts.Cache != nil {
			if v, ok := opts.Cache.Get(st.key); ok {
				st.cached = v.(*core.StudyResult)
				p.stats.CachedStudies++
				continue
			}
		}
		st.sets = make([]core.BarrierPointSet, st.cfg.Runs)
		if err := p.planStudy(st, fpX86, fpARM); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// planStudy appends one member's units to the DAG, in the order that
// ranks them: the canonical baseline run, both native collections, and
// the jittered runs behind the baseline — core.RunStudy's discovery and
// collection steps as a dependency graph. Its validation step is the
// member's assembly (see settle).
func (p *SweepPlan) planStudy(st *sweepStudy, fpX86, fpARM string) error {
	baseline, err := p.addUnit(st, 0, UnitRequest{
		Kind: UnitDiscoverBaseline, App: st.app, FP: fpX86,
		Discovery: &st.discCfg, Build: st.build,
	}, nil)
	if err != nil {
		return err
	}
	for i, fp := range []string{fpX86, fpARM} {
		if _, err := p.addUnit(st, i, UnitRequest{
			Kind: UnitCollect, App: st.app, FP: fp,
			Collect: &st.colCfgs[i], Build: st.build,
		}, nil); err != nil {
			return err
		}
	}
	return p.planJittered(st, fpX86, baseline)
}

// planJittered appends the member's jittered discovery runs behind its
// baseline.
func (p *SweepPlan) planJittered(st *sweepStudy, fp string, baseline *plannedUnit) error {
	for run := 1; run < st.discCfg.Runs; run++ {
		if _, err := p.addUnit(st, run, UnitRequest{
			Kind: UnitDiscoverJittered, App: st.app, FP: fp,
			Discovery: &st.discCfg, Run: run, Build: st.build,
		}, []*plannedUnit{baseline}); err != nil {
			return err
		}
	}
	return nil
}

// addUnit requests one unit for st, merging with an already-planned unit
// of the same content-addressed key when one exists. Merges classify as
// dedup (identical configuration) or subsumption (a discovery run shared
// between different sibling-run counts).
func (p *SweepPlan) addUnit(st *sweepStudy, slot int, req UnitRequest, deps []*plannedUnit) (*plannedUnit, error) {
	key, err := req.Key()
	if err != nil {
		return nil, err
	}
	p.stats.NaiveUnits++
	u := p.byKey[key]
	if u == nil {
		u = &plannedUnit{req: req, key: key, deps: deps, waiting: len(deps)}
		for _, d := range deps {
			d.dependents = append(d.dependents, u)
		}
		p.byKey[key] = u
		p.units = append(p.units, u)
		p.stats.PlannedUnits++
	} else if subsumesRequest(&u.req, &req) {
		p.stats.SubsumedUnits++
	} else {
		p.stats.DedupedUnits++
	}
	u.consumers = append(u.consumers, unitConsumer{st: st, slot: slot, rank: st.remaining})
	st.remaining++
	return u, nil
}

// subsumesRequest reports whether a key-equal merge is a subsumption
// rather than a plain dedup. Discovery keys deliberately zero cfg.Runs
// (a run's outcome does not depend on the sibling count), so the only way
// two key-equal discovery requests differ is in their Runs — the
// superset/subset slicing case. All other kinds key their configuration
// exhaustively, so key-equal means identical.
func subsumesRequest(planned, req *UnitRequest) bool {
	if planned.Kind != UnitDiscoverBaseline && planned.Kind != UnitDiscoverJittered {
		return false
	}
	return planned.Discovery.WithDefaults() != req.Discovery.WithDefaults()
}

// Stats returns the compiler's dedup/subsumption accounting.
func (p *SweepPlan) Stats() PlanStats {
	return p.stats
}

// CancelStudy cancels one member study. Before Execute it marks the
// member so execution finalises it immediately; during Execute it
// finalises the member right away (OnStudy sees context.Canceled) and
// units no live member still needs are skipped as they surface. Other
// members are unaffected.
func (p *SweepPlan) CancelStudy(i int) {
	if i < 0 || i >= len(p.studies) {
		return
	}
	st := p.studies[i]
	p.mu.Lock()
	executing := p.executing
	p.mu.Unlock()
	st.mu.Lock()
	st.cancelled = true
	finalized := st.finalized
	st.mu.Unlock()
	if executing && !finalized {
		p.finalizeStudy(st, nil, context.Canceled)
	}
}

// Execute runs the merged DAG across opts' worker pool and executor,
// releasing each unit as its dependencies complete and assembling every
// member study the moment its last unit lands — results are written into
// per-member slots in unit order, so each member's StudyResult is
// byte-identical to core.RunStudy of the same request. Member failures
// are isolated and deterministic: a member reports its lowest-ranked
// failing unit (planStudy's order), whatever order units finish in, and a
// member whose units all land reports the first set, in run order, that
// fails to score. After a member records a failure its later-ranked units
// are skipped while earlier-ranked ones still run, and it finalises once
// all its units have surfaced; a cancellation never replaces a unit's own
// error.
// Execute returns one outcome per member (submission order) and a
// non-nil error only for sweep-level cancellation via ctx. It must be
// called at most once.
func (p *SweepPlan) Execute(ctx context.Context, sopts SweepOptions) ([]StudyOutcome, error) {
	p.mu.Lock()
	if p.executing {
		p.mu.Unlock()
		return nil, fmt.Errorf("sched: sweep plan executed twice")
	}
	p.executing = true
	p.sopts = sopts
	p.mu.Unlock()

	// Cached and pre-cancelled members finalise first, in submission
	// order, so OnStudy streams them deterministically.
	for _, st := range p.studies {
		st.mu.Lock()
		cached, cancelled := st.cached, st.cancelled
		st.mu.Unlock()
		switch {
		case cached != nil:
			p.finalizeStudy(st, cached, nil)
		case cancelled:
			p.finalizeStudy(st, nil, context.Canceled)
		}
	}

	if len(p.units) > 0 {
		exec := instrument(ctx, p.opts.executor(), p.opts.Metrics)
		// ready is buffered to the whole DAG: every unit is sent exactly
		// once, so release never blocks a worker.
		ready := make(chan *plannedUnit, len(p.units))
		p.ready = ready
		p.outstanding = len(p.units)
		for _, u := range p.units {
			if u.waiting == 0 {
				ready <- u
			}
		}
		workers := p.opts.workers()
		if workers > len(p.units) {
			workers = len(p.units)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for u := range ready {
					p.runUnit(ctx, exec, u)
				}
			}()
		}
		wg.Wait()
	}

	// Safety net: every member finalises as its last unit surfaces; one
	// that somehow did not resolves to an error, never to a nil result.
	ctxErr := ctx.Err()
	for _, st := range p.studies {
		err := ctxErr
		if err == nil {
			err = fmt.Errorf("sched: sweep execution ended with study %s unresolved", st.app)
		}
		p.finalizeStudy(st, nil, err)
	}
	outs := make([]StudyOutcome, len(p.studies))
	for i, st := range p.studies {
		st.mu.Lock()
		outs[i] = st.outcome
		st.mu.Unlock()
	}
	return outs, ctxErr
}

// executeMember executes a one-member plan and returns the member's
// outcome.
func (p *SweepPlan) executeMember(ctx context.Context) StudyOutcome {
	// A fresh plan executes once, and the member's outcome carries any
	// cancellation, so Execute's own error adds nothing.
	outs, _ := p.Execute(ctx, SweepOptions{})
	return outs[0]
}

// runUnit executes one ready unit, unless no member needs it or one of its
// dependencies produced no artifact (those members have recorded a
// failure), and surfaces the outcome to every consuming member. Skipping
// is the pruning that keeps a failed or cancelled member from costing
// compute it exclusively owns.
func (p *SweepPlan) runUnit(ctx context.Context, exec Executor, u *plannedUnit) {
	defer p.unitDone(u)
	var v any
	var err error
	if p.unitNeeded(u) {
		v, err = p.executeUnit(ctx, exec, u)
	}
	u.result = v
	p.settle(u, v, err)
}

// executeUnit attaches a jittered run's in-band baseline, which
// artifactError typed when it landed, and resolves the unit.
func (p *SweepPlan) executeUnit(ctx context.Context, exec Executor, u *plannedUnit) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req := u.req
	if req.Kind == UnitDiscoverJittered {
		req.Base = u.deps[0].result.(baselineArtifact).base
	}
	v, err := exec.ExecuteUnit(ctx, req)
	if err != nil {
		return nil, wrapUnitError(u, err)
	}
	if err := artifactError(req.Kind, v); err != nil {
		return nil, err
	}
	return v, nil
}

// unitDone releases the finished unit's dependents and, when it was the
// last outstanding unit, closes the ready channel. Sends happen outside
// the plan mutex; a unit's own outstanding decrement happens after its
// releases, so the channel only closes once every send has landed.
func (p *SweepPlan) unitDone(u *plannedUnit) {
	p.mu.Lock()
	var release []*plannedUnit
	for _, d := range u.dependents {
		d.waiting--
		if d.waiting == 0 {
			release = append(release, d)
		}
	}
	p.mu.Unlock()
	for _, d := range release {
		p.ready <- d
	}
	p.mu.Lock()
	p.outstanding--
	last := p.outstanding == 0
	p.mu.Unlock()
	if last {
		close(p.ready)
	}
}

// unitNeeded reports whether the unit should execute: every dependency
// produced its artifact, and some member is neither finalised nor failed
// at a unit ranked before this one.
func (p *SweepPlan) unitNeeded(u *plannedUnit) bool {
	for _, d := range u.deps {
		if d.result == nil {
			return false
		}
	}
	for _, c := range u.consumers {
		c.st.mu.Lock()
		needed := !c.st.finalized && (c.st.failed == nil || c.rank < c.st.failed.idx)
		c.st.mu.Unlock()
		if needed {
			return true
		}
	}
	return false
}

// settle surfaces a unit to every consuming member: its artifact lands in
// the member's slot (v non-nil), its failure is ranked against the
// member's others (err non-nil), or, skipped, it only counts. A member
// finalises once its last unit has surfaced: with its lowest-ranked
// failure if it recorded one, otherwise assembled (a Discover member
// keeps just its sets). Only a study that assembles is cached.
func (p *SweepPlan) settle(u *plannedUnit, v any, err error) {
	for _, c := range u.consumers {
		st := c.st
		st.mu.Lock()
		if st.finalized {
			st.mu.Unlock()
			continue
		}
		if err != nil {
			st.failed = preferErr(st.failed, c.rank, err)
		}
		delivered := v != nil && st.failed == nil
		if delivered {
			switch u.req.Kind {
			case UnitDiscoverBaseline:
				st.sets[0] = v.(baselineArtifact).set
			case UnitDiscoverJittered:
				st.sets[c.slot] = v.(core.BarrierPointSet)
			case UnitCollect:
				st.cols[c.slot] = v.(*core.Collection)
			}
			st.done++
		}
		st.remaining--
		done, last, failed := st.done, st.remaining == 0, st.failed
		st.mu.Unlock()
		if delivered && p.sopts.Progress != nil {
			p.sopts.Progress(st.idx, done, st.total)
		}
		if !last {
			continue
		}
		switch {
		case failed != nil:
			p.finalizeStudy(st, nil, failed.err)
		case st.discover:
			p.finalizeStudy(st, nil, nil)
		default:
			res, err := assemble(st)
			if err == nil && p.opts.Cache != nil {
				p.opts.Cache.Put(st.key, res)
			}
			p.finalizeStudy(st, res, err)
		}
	}
}

// assemble is a member's validation step, once all its units have landed:
// it scores every set against both collections in run order, as
// core.RunStudy does, and builds the study. The first set that fails to
// score fails the member.
func assemble(st *sweepStudy) (*core.StudyResult, error) {
	evals := make([]core.SetEvaluation, len(st.sets))
	for i := range st.sets {
		var err error
		if evals[i], err = core.EvaluateSet(st.app, i, &st.sets[i], st.cols[0], st.cols[1]); err != nil {
			return nil, err
		}
	}
	return core.AssembleStudy(st.app, st.cfg, evals, st.cols[0], st.cols[1]), nil
}

// finalizeStudy records one member's outcome exactly once and streams it
// through OnStudy. A cached member reports full progress first.
func (p *SweepPlan) finalizeStudy(st *sweepStudy, res *core.StudyResult, err error) {
	st.mu.Lock()
	if st.finalized {
		st.mu.Unlock()
		return
	}
	st.finalized = true
	st.outcome = StudyOutcome{Result: res, Err: err}
	done, total := st.done, st.total
	st.mu.Unlock()
	if err == nil && p.sopts.Progress != nil && done < total {
		p.sopts.Progress(st.idx, total, total)
	}
	if p.sopts.OnStudy != nil {
		p.sopts.OnStudy(st.idx, res, err)
	}
}

// artifactError verifies a unit artifact's type before any member or
// dependent reads it.
func artifactError(kind UnitKind, v any) error {
	switch kind {
	case UnitDiscoverBaseline:
		if _, ok := v.(baselineArtifact); !ok {
			return fmt.Errorf("sched: baseline unit returned %T", v)
		}
	case UnitDiscoverJittered:
		if _, ok := v.(core.BarrierPointSet); !ok {
			return fmt.Errorf("sched: discovery unit returned %T, want core.BarrierPointSet", v)
		}
	case UnitCollect:
		if _, ok := v.(*core.Collection); !ok {
			return fmt.Errorf("sched: collect unit returned %T, want *core.Collection", v)
		}
	}
	return nil
}

// wrapUnitError names the failing unit's step in the member's error, so
// member errors read the same under batch and serial submission.
func wrapUnitError(u *plannedUnit, err error) error {
	switch u.req.Kind {
	case UnitDiscoverBaseline, UnitDiscoverJittered:
		return fmt.Errorf("sched: study %s: %w", u.req.App, err)
	case UnitCollect:
		if len(u.consumers) > 0 && u.consumers[0].slot == 1 {
			return fmt.Errorf("sched: study %s ARMv8 collection: %w", u.req.App, err)
		}
		return fmt.Errorf("sched: study %s x86_64 collection: %w", u.req.App, err)
	}
	return err
}
