// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI), plus the Section V-B/V-C limitation and
// overhead studies, from the simulated platforms.
//
// Each experiment has a driver function writing the paper-shaped output to
// an io.Writer, and declares the studies that function reads, so a suite
// runs in two steps: Runner.PlanStudies executes every declared study as
// one sweep, then the experiments render from the cache. cmd/bpexperiments
// exposes them on the command line and the repository benchmarks exercise
// each one.
package experiments

import (
	"context"
	"fmt"
	"io"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/cachestore"
	"barrierpoint/internal/core"
	"barrierpoint/internal/resultcache"
	"barrierpoint/internal/sched"
)

// Config scales the experiments.
type Config struct {
	// Seed drives all randomness; the same seed regenerates identical
	// tables.
	Seed uint64
	// Runs is the number of discovery runs per configuration (paper: 10).
	Runs int
	// Reps is the number of measurement repetitions (paper: 20).
	Reps int
	// Threads lists the thread counts to evaluate (paper: 1, 2, 4, 8).
	Threads []int
	// MaxK caps clustering.
	MaxK int
	// Workers is the suite's one worker budget (0 = GOMAXPROCS):
	// PlanStudies runs the whole declared sweep on that many workers, and
	// so does each Study, Discover or Collect call a renderer makes. The
	// same seed regenerates identical tables for any worker count.
	Workers int
	// WorkerURLs lists remote unit workers (bpworker processes) to shard
	// study units across; empty runs everything in-process. The same
	// seed regenerates identical tables either way.
	WorkerURLs []string
	// WorkerInflight bounds concurrent units dispatched per remote
	// worker (default 4). Only meaningful with WorkerURLs.
	WorkerInflight int
}

// Default returns the paper's full configuration.
func Default() Config {
	return Config{Seed: 2017, Runs: 10, Reps: 20, Threads: []int{1, 2, 4, 8}}
}

// Quick returns a reduced configuration for tests and benchmarks: fewer
// discovery runs and only the 2- and 8-thread configurations.
func Quick() Config {
	return Config{Seed: 2017, Runs: 3, Reps: 20, Threads: []int{2, 8}}
}

func (c Config) withDefaults() Config {
	if c.Runs <= 0 {
		c.Runs = 10
	}
	if c.Reps <= 0 {
		c.Reps = 20
	}
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 8}
	}
	return c
}

// Runner runs and caches the per-configuration studies shared by several
// experiments (Table III, Table IV, and Figure 2 all consume the same
// studies). Studies execute on the internal/sched worker pool, with all
// expensive intermediates, whole studies included, memoised in a shared
// result cache. It is safe for concurrent use.
type Runner struct {
	cfg   Config
	cache *resultcache.Cache
	// exec is non-nil when the runner dispatches units to a remote
	// worker fleet (Config.WorkerURLs).
	exec sched.Executor
}

// runnerCacheEntries comfortably covers a full sweep: 11 apps × 4 thread
// counts × a handful of artifacts per study.
const runnerCacheEntries = 4096

// NewRunner returns a Runner for the configuration.
func NewRunner(cfg Config) *Runner {
	r := &Runner{cfg: cfg.withDefaults(), cache: resultcache.New(runnerCacheEntries)}
	r.initExecutor()
	return r
}

// initExecutor builds the remote unit executor when the configuration
// names a worker fleet; the runner's shared cache doubles as the
// dispatch-side memo and the local fallback's substrate.
func (r *Runner) initExecutor() {
	if len(r.cfg.WorkerURLs) == 0 {
		return
	}
	r.exec = sched.NewRemoteExecutor(r.cfg.WorkerURLs, sched.RemoteOptions{
		PerWorkerInflight: r.cfg.WorkerInflight,
		Cache:             r.cache,
	})
}

// schedOptions returns the scheduler options every runner entry point
// shares: the worker budget, the shared cache, and the unit executor.
func (r *Runner) schedOptions() sched.Options {
	return sched.Options{Workers: r.cfg.Workers, Cache: r.cache, Executor: r.exec}
}

// NewPersistentRunner returns a Runner whose shared cache is backed by a
// persistent store rooted at dir: separate batch invocations (and a
// bpserved instance) pointed at the same directory share discovery runs,
// collections, and whole studies across processes. maxBytes bounds the
// store on disk (0 = unbounded). The caller must Close the runner to
// flush pending writes.
func NewPersistentRunner(cfg Config, dir string, maxBytes int64) (*Runner, error) {
	store, err := cachestore.Open(dir, cachestore.Options{MaxBytes: maxBytes})
	if err != nil {
		return nil, err
	}
	r := &Runner{cfg: cfg.withDefaults(), cache: resultcache.NewWith(resultcache.Config{
		MaxEntries: runnerCacheEntries,
		Store:      store,
	})}
	r.initExecutor()
	return r, nil
}

// Close flushes pending cache write-behinds and closes the backing store;
// a no-op for memory-only runners.
func (r *Runner) Close() error { return r.cache.Close() }

// CacheStats reports the shared result cache's counters.
func (r *Runner) CacheStats() resultcache.Stats { return r.cache.Stats() }

// StudySpec names one study by the triple the runner derives everything
// else from (runs, reps, seed and clustering come from the runner's
// Config).
type StudySpec struct {
	App        string
	Threads    int
	Vectorised bool
}

// specRequest builds the scheduler request for one spec. Study and
// PlanStudies share it, so a planned study addresses exactly the cache
// entry a later Study call reads.
//
//bp:keyfields StudySpec
func (r *Runner) specRequest(sp StudySpec) (sched.StudyRequest, error) {
	a, err := apps.ByName(sp.App)
	if err != nil {
		return sched.StudyRequest{}, err
	}
	return sched.StudyRequest{
		App:   sp.App,
		Build: a.Build,
		Config: core.StudyConfig{
			Threads:    sp.Threads,
			Vectorised: sp.Vectorised,
			Runs:       r.cfg.Runs,
			Reps:       r.cfg.Reps,
			Seed:       r.cfg.Seed ^ uint64(sp.Threads)<<32 ^ boolBit(sp.Vectorised)<<48 ^ hashName(sp.App),
			MaxK:       r.cfg.MaxK,
		},
	}, nil
}

func studyErr(sp StudySpec, err error) error {
	return fmt.Errorf("experiments: study %s/%dt/vect=%v: %w", sp.App, sp.Threads, sp.Vectorised, err)
}

// Study returns the cross-architecture study for one configuration. It is
// a one-member sched.Run on the runner's cache, so a study PlanStudies
// (or an earlier Study call) already ran is a whole-study cache hit that
// returns the stored result.
func (r *Runner) Study(app string, threads int, vectorised bool) (*core.StudyResult, error) {
	sp := StudySpec{App: app, Threads: threads, Vectorised: vectorised}
	req, err := r.specRequest(sp)
	if err != nil {
		return nil, studyErr(sp, err)
	}
	res, err := sched.Run(context.Background(), req, r.schedOptions())
	if err != nil {
		return nil, studyErr(sp, err)
	}
	return res, nil
}

// PlanStudies runs every study the experiments declare (Experiment.Studies)
// as one sweep: sched.CompileSweep plans their union as one deduplicated
// unit DAG, which executes on Config.Workers workers. Each result lands in
// the whole-study cache entry Study reads, so the experiments then
// render without computing a study. The first failing study, in
// declaration order, aborts with its error; the PlanStats report the
// planner's accounting either way.
func (r *Runner) PlanStudies(exps []Experiment) (sched.PlanStats, error) {
	var specs []StudySpec
	var reqs []sched.StudyRequest
	seen := map[StudySpec]bool{}
	for _, e := range exps {
		if e.Studies == nil {
			continue
		}
		for _, sp := range e.Studies(r.cfg) {
			if seen[sp] {
				continue
			}
			seen[sp] = true
			req, err := r.specRequest(sp)
			if err != nil {
				return sched.PlanStats{}, studyErr(sp, err)
			}
			specs, reqs = append(specs, sp), append(reqs, req)
		}
	}
	plan, err := sched.CompileSweep(context.Background(), reqs, r.schedOptions())
	if err != nil {
		return sched.PlanStats{}, fmt.Errorf("experiments: compiling %d-study sweep: %w", len(reqs), err)
	}
	outcomes, err := plan.Execute(context.Background(), sched.SweepOptions{})
	if err != nil {
		return plan.Stats(), fmt.Errorf("experiments: executing %d-study sweep: %w", len(reqs), err)
	}
	for i, out := range outcomes {
		if out.Err != nil {
			return plan.Stats(), studyErr(specs[i], out.Err)
		}
	}
	return plan.Stats(), nil
}

// Discover runs Step 2 for one builder on the scheduler, memoising the
// per-run barrier point sets in the runner's shared cache. Experiments
// that re-discover overlapping configurations (the ablations sweep run
// counts and the future-work studies reuse full-run discoveries) share
// the underlying work.
func (r *Runner) Discover(app string, build core.ProgramBuilder, cfg core.DiscoveryConfig) ([]core.BarrierPointSet, error) {
	return sched.Discover(context.Background(), sched.DiscoverRequest{
		App: app, Build: build, Config: cfg,
	}, r.schedOptions())
}

// Collect runs Step 3 for one builder on the scheduler, memoising the
// collection in the runner's shared cache.
func (r *Runner) Collect(app string, build core.ProgramBuilder, cfg core.CollectConfig) (*core.Collection, error) {
	return sched.Collect(context.Background(), sched.CollectRequest{
		App: app, Build: build, Config: cfg,
	}, r.schedOptions())
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func hashName(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// An Experiment pairs a name with its Run function and the studies Run
// reads.
type Experiment struct {
	Name        string
	Description string
	Run         func(r *Runner, w io.Writer) error
	// Studies declares every study Run reads through Runner.Study at a
	// runner's configuration, so PlanStudies can run them all as one
	// sweep before Run. Nil when Run reads none; a Run that calls
	// Discover or Collect with its own configurations makes those calls
	// itself.
	Studies func(Config) []StudySpec
}

// studyGrid crosses apps with thread counts, scalar then vectorised, in
// the order the experiments read them.
func studyGrid(names []string, threads []int) []StudySpec {
	var specs []StudySpec
	for _, name := range names {
		for _, t := range threads {
			specs = append(specs, StudySpec{name, t, false}, StudySpec{name, t, true})
		}
	}
	return specs
}

// evaluatedApps names the applications the paper evaluates (Table I).
func evaluatedApps() []string {
	var names []string
	for _, a := range apps.Evaluated() {
		names = append(names, a.Name)
	}
	return names
}

// maxThreads is the largest configured thread count, at which the
// single-configuration experiments run.
func (c Config) maxThreads() int { return c.Threads[len(c.Threads)-1] }

// All returns every experiment in the DESIGN.md index order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I: applications deployed and their descriptions", Table1, nil},
		{"table2", "Table II: micro-architectural parameters of the two platforms", Table2, nil},
		{"table3", "Table III: total and selected barrier points per application", Table3,
			func(c Config) []StudySpec { return studyGrid(evaluatedApps(), c.Threads) }},
		{"table4", "Table IV: selection, error and speed-up for the 8-thread configurations", Table4,
			func(Config) []StudySpec { return studyGrid(evaluatedApps(), []int{table4Threads}) }},
		{"fig1", "Figure 1: MCB per-barrier-point CPI and L2D MPKI with two barrier point sets", Fig1,
			func(Config) []StudySpec { return []StudySpec{fig1Study} }},
		{"fig2", "Figure 2: estimation error per application, thread count and prediction target", Fig2,
			func(c Config) []StudySpec { return studyGrid(fig2Apps, c.Threads) }},
		{"limits", "Section V-B: applicability limitations", Limits, nil},
		{"overhead", "Section V-C: measurement variability and instrumentation overhead", OverheadVariability, nil},
		{"headline", "Section VI headline: accuracy and simulation-time reduction summary", Headline,
			func(c Config) []StudySpec { return studyGrid(headlineApps, []int{c.maxThreads()}) }},
		{"ablation-signature", "Ablation: BBV+LDV vs BBV-only vs LDV-only signatures", AblationSignature, nil},
		{"ablation-drop", "Ablation: dropping insignificant barrier points", AblationDropInsignificant,
			func(c Config) []StudySpec { return []StudySpec{{App: ablationApp, Threads: c.maxThreads()}} }},
		{"ablation-runs", "Ablation: number of discovery runs", AblationDiscoveryRuns, nil},
		{"ablation-dim", "Ablation: signature projection dimension", AblationProjectionDim, nil},
		{"fw-coretypes", "Future work: in-order vs out-of-order target cores", FutureWorkCoreTypes, nil},
		{"fw-coarsen", "Future work: coarsening LULESH's short barrier points", FutureWorkCoarsen, nil},
		{"fw-multiplex", "Future work: counter multiplexing cost", FutureWorkMultiplex, nil},
		{"fw-refine", "Future work: interval-splitting single-region applications", FutureWorkRefine, nil},
		{"fw-isadiff", "Future work: quantifying cross-ISA differences", FutureWorkISADiff, nil},
	}
}

// ByName returns the named experiment.
func ByName(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", name)
}
