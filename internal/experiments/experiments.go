// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI), plus the Section V-B/V-C limitation and
// overhead studies, from the simulated platforms.
//
// Each experiment declares every study, discovery and collection it reads
// and returns the function that writes the paper-shaped output from them,
// so a suite runs in two steps: Runner.Execute runs every declaration as
// one plan, then the experiments render, which is formatting only.
// cmd/bpexperiments exposes them on the command line and the repository
// benchmarks exercise each one.
package experiments

import (
	"context"
	"fmt"
	"io"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/cachestore"
	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/resultcache"
	"barrierpoint/internal/sched"
	"barrierpoint/internal/trace"
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
	// Workers is the suite's one worker budget (0 = GOMAXPROCS): Execute
	// runs the whole declared plan on that many workers. The same seed
	// regenerates identical tables for any worker count.
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

// Runner declares and runs the studies, discoveries and collections the
// experiments read (Table III, Table IV, and Figure 2 all consume the same
// studies). Study, Discover and Collect each declare one plan member and
// return a Handle to it; Execute runs every pending declaration as one
// plan on the internal/sched worker pool, with all expensive
// intermediates, whole studies included, memoised in a shared result
// cache; the handles then read the results. Declarations and Execute are
// not safe for concurrent use: one goroutine declares, executes and
// renders, and the plan runs its units concurrently.
type Runner struct {
	cfg   Config
	cache *resultcache.Cache
	// exec is non-nil when the runner dispatches units to a remote
	// worker fleet (Config.WorkerURLs).
	exec sched.Executor
	// studies holds every study declared so far, so a configuration is
	// one member however many experiments read it.
	studies map[StudySpec]*member
	// pending are the members the next Execute runs.
	pending []*member
}

// runnerCacheEntries comfortably covers a full sweep: 11 apps × 4 thread
// counts × a handful of artifacts per study.
const runnerCacheEntries = 4096

// NewRunner returns a Runner for the configuration.
func NewRunner(cfg Config) *Runner {
	return newRunner(cfg, resultcache.New(runnerCacheEntries))
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
	return newRunner(cfg, resultcache.NewWith(resultcache.Config{
		MaxEntries: runnerCacheEntries,
		Store:      store,
	})), nil
}

// newRunner returns a Runner on cache. When the configuration names a
// worker fleet, units go to it through a remote executor, for which the
// cache doubles as the dispatch-side memo and the local fallback's
// substrate.
func newRunner(cfg Config, cache *resultcache.Cache) *Runner {
	r := &Runner{cfg: cfg.withDefaults(), cache: cache, studies: map[StudySpec]*member{}}
	if len(r.cfg.WorkerURLs) > 0 {
		r.exec = sched.NewRemoteExecutor(r.cfg.WorkerURLs, sched.RemoteOptions{
			PerWorkerInflight: r.cfg.WorkerInflight,
			Cache:             r.cache,
		})
	}
	return r
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

// specRequest builds the scheduler request for one spec.
//
//bp:keyfields StudySpec
func (r *Runner) specRequest(sp StudySpec) sched.StudyRequest {
	return sched.StudyRequest{
		App:   sp.App,
		Build: appBuild(sp.App),
		Config: core.StudyConfig{
			Threads:    sp.Threads,
			Vectorised: sp.Vectorised,
			Runs:       r.cfg.Runs,
			Reps:       r.cfg.Reps,
			Seed:       r.cfg.Seed ^ uint64(sp.Threads)<<32 ^ boolBit(sp.Vectorised)<<48 ^ hashName(sp.App),
			MaxK:       r.cfg.MaxK,
		},
	}
}

// member is one declared plan member: its request and, once Execute has
// run it, its outcome.
type member struct {
	// what names the member in errors.
	what string
	req  sched.StudyRequest
	out  *sched.StudyOutcome
}

// A Handle reads one declared member's result once Runner.Execute has run
// it.
type Handle[T any] struct {
	m   *member
	get func(*sched.StudyOutcome) T
}

// Get returns the member's result. Reading a member that Execute has not
// run is a bug in the experiment, and panics.
func (h Handle[T]) Get() T {
	if h.m.out == nil {
		panic("experiments: " + h.m.what + " read before Runner.Execute ran it")
	}
	return h.get(h.m.out)
}

// declare queues a member for the next Execute.
func (r *Runner) declare(m *member) *member {
	r.pending = append(r.pending, m)
	return m
}

// Study declares the cross-architecture study for one configuration. A
// configuration declared before is the same member, already run if an
// Execute has passed.
func (r *Runner) Study(app string, threads int, vectorised bool) Handle[*core.StudyResult] {
	sp := StudySpec{App: app, Threads: threads, Vectorised: vectorised}
	m := r.studies[sp]
	if m == nil {
		m = r.declare(&member{what: fmt.Sprintf("study %s/%dt/vect=%v", app, threads, vectorised),
			req: r.specRequest(sp)})
		r.studies[sp] = m
	}
	return Handle[*core.StudyResult]{m, func(o *sched.StudyOutcome) *core.StudyResult { return o.Result }}
}

// Discover declares Step 2 for one builder; its sets come in
// discovery-run order.
func (r *Runner) Discover(app string, build core.ProgramBuilder, cfg core.DiscoveryConfig) Handle[[]core.BarrierPointSet] {
	m := r.declare(&member{what: "discovery " + app,
		req: sched.StudyRequest{App: app, Build: build, Discovery: &cfg}})
	return Handle[[]core.BarrierPointSet]{m, func(o *sched.StudyOutcome) []core.BarrierPointSet { return o.Sets }}
}

// Collect declares one native collection (Step 3) for one builder.
func (r *Runner) Collect(app string, build core.ProgramBuilder, cfg core.CollectConfig) Handle[*core.Collection] {
	m := r.declare(&member{what: "collection " + app,
		req: sched.StudyRequest{App: app, Build: build, Collect: &cfg}})
	return Handle[*core.Collection]{m, func(o *sched.StudyOutcome) *core.Collection { return o.Col }}
}

// Execute runs every pending declaration as one plan: sched.CompileSweep
// merges their units into one deduplicated DAG, which executes on
// Config.Workers workers, and whole studies land in the cache. The first
// failing declaration, in declaration order, aborts with its error; the
// PlanStats report the planner's accounting either way.
func (r *Runner) Execute() (sched.PlanStats, error) {
	pending := r.pending
	r.pending = nil
	reqs := make([]sched.StudyRequest, len(pending))
	for i, m := range pending {
		reqs[i] = m.req
	}
	plan, err := sched.CompileSweep(context.Background(), reqs,
		sched.Options{Workers: r.cfg.Workers, Cache: r.cache, Executor: r.exec})
	if err != nil {
		return sched.PlanStats{}, fmt.Errorf("experiments: compiling %d-member plan: %w", len(reqs), err)
	}
	outcomes, err := plan.Execute(context.Background(), sched.SweepOptions{})
	if err != nil {
		return plan.Stats(), fmt.Errorf("experiments: executing %d-member plan: %w", len(reqs), err)
	}
	for i := range outcomes {
		if err := outcomes[i].Err; err != nil {
			return plan.Stats(), fmt.Errorf("experiments: %s: %w", pending[i].what, err)
		}
		pending[i].out = &outcomes[i]
	}
	return plan.Stats(), nil
}

// appBuild returns the registry builder of the named application. An
// unknown name yields a builder that fails with the lookup error, so a
// declaration cannot fail: Execute reports it.
func appBuild(name string) core.ProgramBuilder {
	a, err := apps.ByName(name)
	if err != nil {
		return func(int, isa.Variant) (*trace.Program, error) { return nil, err }
	}
	return a.Build
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

// An Experiment pairs a name with its Run function.
type Experiment struct {
	Name        string
	Description string
	// Run declares on r every study, discovery and collection the
	// experiment reads, and returns the function that renders the
	// experiment from them once r.Execute has run them.
	Run func(r *Runner) func(w io.Writer) error
}

// A gridStudy is a declared study beside the spec that names it.
type gridStudy struct {
	StudySpec
	Handle[*core.StudyResult]
}

// studyGrid declares apps crossed with thread counts, scalar then
// vectorised, in the order the experiments read them.
func (r *Runner) studyGrid(names []string, threads []int) []gridStudy {
	var grid []gridStudy
	for _, name := range names {
		for _, t := range threads {
			for _, vect := range []bool{false, true} {
				grid = append(grid, gridStudy{StudySpec{name, t, vect}, r.Study(name, t, vect)})
			}
		}
	}
	return grid
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
		{"table1", "Table I: applications deployed and their descriptions", Table1},
		{"table2", "Table II: micro-architectural parameters of the two platforms", Table2},
		{"table3", "Table III: total and selected barrier points per application", Table3},
		{"table4", "Table IV: selection, error and speed-up for the 8-thread configurations", Table4},
		{"fig1", "Figure 1: MCB per-barrier-point CPI and L2D MPKI with two barrier point sets", Fig1},
		{"fig2", "Figure 2: estimation error per application, thread count and prediction target", Fig2},
		{"limits", "Section V-B: applicability limitations", Limits},
		{"overhead", "Section V-C: measurement variability and instrumentation overhead", OverheadVariability},
		{"headline", "Section VI headline: accuracy and simulation-time reduction summary", Headline},
		{"ablation-signature", "Ablation: BBV+LDV vs BBV-only vs LDV-only signatures", AblationSignature},
		{"ablation-drop", "Ablation: dropping insignificant barrier points", AblationDropInsignificant},
		{"ablation-runs", "Ablation: number of discovery runs", AblationDiscoveryRuns},
		{"ablation-dim", "Ablation: signature projection dimension", AblationProjectionDim},
		{"fw-coretypes", "Future work: in-order vs out-of-order target cores", FutureWorkCoreTypes},
		{"fw-coarsen", "Future work: coarsening LULESH's short barrier points", FutureWorkCoarsen},
		{"fw-multiplex", "Future work: counter multiplexing cost", FutureWorkMultiplex},
		{"fw-refine", "Future work: interval-splitting single-region applications", FutureWorkRefine},
		{"fw-isadiff", "Future work: quantifying cross-ISA differences", FutureWorkISADiff},
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
