package sched

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/resultcache"
)

// PlanStats is the sweep compiler's accounting: how many units the sweep
// would have requested member by member (naive) versus how many the
// merged DAG actually executes. NaiveUnits = PlannedUnits + DedupedUnits +
// SubsumedUnits; whole-study cache hits request no units and count only
// in CachedStudies.
type PlanStats struct {
	// Studies is the number of members in the sweep: studies, and
	// discoveries and collections alone.
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

// StudyOutcome is one member's result or failure. A study member
// carries its Result, a discovery member (StudyRequest.Discovery) its
// Sets in run order, and a collection member (StudyRequest.Collect) its
// Col.
type StudyOutcome struct {
	Result *core.StudyResult
	Sets   []core.BarrierPointSet
	Col    *core.Collection
	Err    error
}

// SweepOptions configure one SweepPlan execution.
type SweepOptions struct {
	// OnStudy, when non-nil, streams member completions: it is called
	// exactly once per member, from whichever worker finished (or
	// cancelled) it, as soon as the member's outcome is known; res is nil
	// for a discovery or collection member. Calls for different members
	// may arrive concurrently; OnStudy must not block.
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

// sweepStudy is one member's assembly state: artifact slots filled by
// completing units, in unit order, and the member's lowest-ranked
// failure. Once every slot is filled, assemble finishes the member.
type sweepStudy struct {
	idx     int
	app     string
	build   core.ProgramBuilder
	kind    memberKind
	cfg     core.StudyConfig
	discCfg core.DiscoveryConfig
	// colCfgs holds a study's two collections (x86_64 first), or a
	// collection member's one.
	colCfgs []core.CollectConfig
	key     resultcache.Key
	cached  *core.StudyResult
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

// memberKind is what a sweep member runs (see StudyRequest).
type memberKind int

const (
	memberStudy memberKind = iota
	memberDiscovery
	memberCollection
)

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

// CompileSweep plans a whole sweep as one global unit DAG before any
// execution: every member decomposes into typed UnitRequests (Run is a
// sweep of one), units are deduplicated across members by their
// content-addressed keys, discovery runs shared between different run
// counts are subsumed into the superset, and study members already
// answered by opts.Cache are marked cached and plan nothing. A member is
// a whole study, or a discovery or one collection alone (see
// StudyRequest). The DAG preserves each member's assembly order, so
// Execute renders every study member byte-identical to core.RunStudy's
// serial composition of the same request, and every discovery member to
// core.Discover's.
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

	fps := programFPs{}
	for i, req := range reqs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := p.addMember(i, req, fps); err != nil {
			return nil, fmt.Errorf("sched: member %d (%s %s): %w", i, req.App, requestKind(req), err)
		}
	}
	return p, nil
}

// requestKind names what a member asks for, in CompileSweep's errors.
func requestKind(req StudyRequest) string {
	switch {
	case req.Discovery != nil && req.Collect != nil:
		return "discovery and collection"
	case req.Discovery != nil:
		return "discovery"
	case req.Collect != nil:
		return "collection"
	}
	return "study"
}

// addMember checks member i's request and plans it.
func (p *SweepPlan) addMember(i int, req StudyRequest, fps programFPs) error {
	if req.Build == nil {
		return errors.New("no program builder")
	}
	st := &sweepStudy{idx: i, app: req.App, build: req.Build}
	p.studies = append(p.studies, st)
	switch {
	case req.Discovery != nil && req.Collect != nil:
		return errors.New("asks for a discovery and a collection at once")
	case req.Discovery != nil:
		st.kind, st.discCfg = memberDiscovery, req.Discovery.WithDefaults()
		st.total = st.discCfg.Runs
	case req.Collect != nil:
		if req.Collect.Variant.ISA == nil {
			// Matches core.Collect's validation; checked here first
			// because the unit key renders the variant.
			return errors.New("core: collection needs a binary variant")
		}
		st.kind, st.colCfgs, st.total = memberCollection, []core.CollectConfig{*req.Collect}, 1
	default:
		st.cfg = req.Config.WithDefaults()
		cols := st.cfg.Collections()
		st.discCfg, st.colCfgs, st.total = st.cfg.Discovery(), cols[:], StudyUnits(st.cfg)
	}
	return p.planMember(st, fps)
}

// planMember appends one member's units to the DAG in the order that
// ranks them: the canonical baseline run, the native collections, and
// the jittered runs behind the baseline. That is core.RunStudy's
// discovery and collection steps as a dependency graph, or the part of
// them a discovery or collection member runs. A study member already in
// opts.Cache plans nothing; a study's validation step is its assembly
// (see assemble).
func (p *SweepPlan) planMember(st *sweepStudy, fps programFPs) error {
	colFPs := make([]string, len(st.colCfgs))
	for i, cfg := range st.colCfgs {
		var err error
		if colFPs[i], err = fps.of(st.app, st.build, cfg.Threads, cfg.Variant); err != nil {
			return err
		}
	}
	if st.kind == memberStudy {
		st.key = studyKeyFrom(colFPs[0], colFPs[1], st.cfg)
		if p.opts.Cache != nil {
			if v, ok := p.opts.Cache.Get(st.key); ok {
				st.cached = v.(*core.StudyResult)
				p.stats.CachedStudies++
				return nil
			}
		}
	}
	var baseline *plannedUnit
	var discFP string
	if st.kind != memberCollection {
		var err error
		discFP, err = fps.of(st.app, st.build, st.discCfg.Threads,
			isa.Variant{ISA: isa.X8664(), Vectorised: st.discCfg.Vectorised})
		if err != nil {
			return err
		}
		st.sets = make([]core.BarrierPointSet, st.discCfg.Runs)
		if baseline, err = p.addUnit(st, 0, UnitRequest{
			Kind: UnitDiscoverBaseline, App: st.app, FP: discFP,
			Discovery: &st.discCfg, Build: st.build,
		}, nil); err != nil {
			return err
		}
	}
	for i := range st.colCfgs {
		if _, err := p.addUnit(st, i, UnitRequest{
			Kind: UnitCollect, App: st.app, FP: colFPs[i],
			Collect: &st.colCfgs[i], Build: st.build,
		}, nil); err != nil {
			return err
		}
	}
	for run := 1; run < len(st.sets); run++ {
		if _, err := p.addUnit(st, run, UnitRequest{
			Kind: UnitDiscoverJittered, App: st.app, FP: discFP,
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
		p.finalizeStudy(st, StudyOutcome{Err: context.Canceled})
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
			p.finalizeStudy(st, StudyOutcome{Result: cached})
		case cancelled:
			p.finalizeStudy(st, StudyOutcome{Err: context.Canceled})
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
		p.finalizeStudy(st, StudyOutcome{Err: err})
	}
	outs := make([]StudyOutcome, len(p.studies))
	for i, st := range p.studies {
		st.mu.Lock()
		outs[i] = st.outcome
		st.mu.Unlock()
	}
	return outs, ctxErr
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
// failure if it recorded one, otherwise assembled.
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
		if failed != nil {
			p.finalizeStudy(st, StudyOutcome{Err: failed.err})
		} else {
			p.finalizeStudy(st, p.assemble(st))
		}
	}
}

// assemble finishes a member once all its units have landed. A discovery
// member keeps its sets and a collection member its collection. A study
// member is validated: it scores every set against both collections in
// run order, as core.RunStudy does, and builds the study, which is
// cached; the first set that fails to score fails the member.
func (p *SweepPlan) assemble(st *sweepStudy) StudyOutcome {
	switch st.kind {
	case memberDiscovery:
		return StudyOutcome{Sets: st.sets}
	case memberCollection:
		return StudyOutcome{Col: st.cols[0]}
	}
	evals := make([]core.SetEvaluation, len(st.sets))
	for i := range st.sets {
		var err error
		if evals[i], err = core.EvaluateSet(st.app, i, &st.sets[i], st.cols[0], st.cols[1]); err != nil {
			return StudyOutcome{Err: err}
		}
	}
	res := core.AssembleStudy(st.app, st.cfg, evals, st.cols[0], st.cols[1])
	if p.opts.Cache != nil {
		p.opts.Cache.Put(st.key, res)
	}
	return StudyOutcome{Result: res}
}

// finalizeStudy records one member's outcome exactly once and streams it
// through OnStudy. A cached member reports full progress first.
func (p *SweepPlan) finalizeStudy(st *sweepStudy, out StudyOutcome) {
	st.mu.Lock()
	if st.finalized {
		st.mu.Unlock()
		return
	}
	st.finalized = true
	st.outcome = out
	done, total := st.done, st.total
	st.mu.Unlock()
	if out.Err == nil && p.sopts.Progress != nil && done < total {
		p.sopts.Progress(st.idx, total, total)
	}
	if p.sopts.OnStudy != nil {
		p.sopts.OnStudy(st.idx, out.Result, out.Err)
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
// member errors read the same under batch and serial submission. A
// collection is named by its ISA.
func wrapUnitError(u *plannedUnit, err error) error {
	switch u.req.Kind {
	case UnitDiscoverBaseline, UnitDiscoverJittered:
		return fmt.Errorf("sched: study %s: %w", u.req.App, err)
	case UnitCollect:
		return fmt.Errorf("sched: study %s %s collection: %w", u.req.App, u.req.Collect.Variant.ISA.Name, err)
	}
	return err
}
