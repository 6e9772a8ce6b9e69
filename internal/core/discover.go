package core

import (
	"fmt"
	"sync"

	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/omp"
	"barrierpoint/internal/pin"
	"barrierpoint/internal/sigvec"
	"barrierpoint/internal/simpoint"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/xrand"
)

// DiscoveryConfig parameterises Step 2 (barrier point discovery and
// clustering). Discovery always runs on the x86_64 platform, as in the
// paper.
type DiscoveryConfig struct {
	Threads    int
	Vectorised bool
	// Runs is the number of repeated discovery runs (the paper uses 10 to
	// capture thread-interleaving variability).
	Runs int
	// Seed drives all jitter and clustering randomness.
	Seed uint64
	// MaxK caps the clusters searched (default 20).
	MaxK int
	// SigDim is the projected dimension per signature component
	// (default sigvec.DefaultDim).
	SigDim int
	// UseBBV/UseLDV select the signature components; both default to on.
	// (Setting exactly one false is the signature ablation.)
	DisableBBV bool
	DisableLDV bool
}

// DefaultDiscovery returns the paper's discovery configuration.
func DefaultDiscovery(threads int, vectorised bool, seed uint64) DiscoveryConfig {
	return DiscoveryConfig{Threads: threads, Vectorised: vectorised, Runs: 10, Seed: seed}
}

// WithDefaults returns the configuration with unset fields filled in with
// the paper's values. It is the single source of truth for discovery
// defaults: the discovery runners use it before computing, and the
// scheduler's cache uses it before keying, so a zero field and its
// explicit default always describe — and address — the same computation.
func (cfg DiscoveryConfig) WithDefaults() DiscoveryConfig {
	if cfg.Runs <= 0 {
		cfg.Runs = 10
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 20
	}
	if cfg.SigDim <= 0 {
		cfg.SigDim = sigvec.DefaultDim
	}
	return cfg
}

// LDVBaseline carries the canonical (unjittered) run's per-barrier-point
// LDV contribution. Schedule jitter perturbs how trips split across
// threads (and therefore the BBVs) but not the per-region data footprint,
// and LDV collection is by far the most expensive part of
// instrumentation, so jittered re-runs reuse the baseline's LDVs. The
// type is immutable after DiscoverBaseline returns, so any number of
// jittered runs may consume it concurrently.
//
// The baseline stores the rows already projected: every run of a study
// builds signatures with the same sigvec options and seed, so the
// canonical run's projected LDV half is, bit for bit, what a jittered run
// would compute by re-projecting the raw binned LDV — at dim floats per
// point instead of bins×threads, with no per-point projection work on the
// jittered runs. (The raw rows are kept only on the legacy golden path,
// which re-projects through the allocating sigvec.Build.)
type LDVBaseline struct {
	n    int
	dim  int       // floats per projected row (0 when the signature has no LDV component)
	proj []float64 // n×dim, row i at [i*dim:(i+1)*dim]
	raw  [][]float64
}

// NumPoints returns how many barrier points the canonical run observed.
func (b *LDVBaseline) NumPoints() int { return b.n }

// addPoint records the canonical run's next barrier point: its projected
// LDV half (copied) and, when keepRaw, the raw binned LDV.
func (b *LDVBaseline) addPoint(projRow []float64, raw []float64, keepRaw bool) {
	b.proj = append(b.proj, projRow...)
	if keepRaw {
		b.raw = append(b.raw, append([]float64(nil), raw...))
	}
	b.n++
}

// projRow returns point i's projected LDV half.
func (b *LDVBaseline) projRow(i int) []float64 { return b.proj[i*b.dim : (i+1)*b.dim] }

// discoverySetup validates the configuration and resolves the shared
// per-run parameters. Every discovery entry point goes through it so the
// serial and scheduled paths reject bad configurations identically.
func discoverySetup(cfg DiscoveryConfig) (isa.Variant, *machine.Machine, sigvec.Options, int, error) {
	cfg = cfg.WithDefaults()
	variant := isa.Variant{ISA: isa.X8664(), Vectorised: cfg.Vectorised}
	mach := machine.ForISA(variant.ISA)
	if cfg.Threads <= 0 {
		return variant, nil, sigvec.Options{}, 0,
			fmt.Errorf("core: discovery needs a positive thread count, got %d", cfg.Threads)
	}
	if cfg.Threads > mach.MaxThreads() {
		return variant, nil, sigvec.Options{}, 0,
			fmt.Errorf("core: %d threads exceed the %s's %d hardware threads",
				cfg.Threads, mach.Name, mach.MaxThreads())
	}
	if cfg.DisableBBV && cfg.DisableLDV {
		return variant, nil, sigvec.Options{}, 0,
			fmt.Errorf("core: discovery signature needs a BBV or an LDV component")
	}
	opts := sigvec.Options{
		Dim:    cfg.SigDim,
		UseBBV: !cfg.DisableBBV,
		UseLDV: !cfg.DisableLDV,
		Seed:   cfg.Seed,
	}
	return variant, mach, opts, cfg.MaxK, nil
}

// legacySignaturePath switches discoverRun back to the pre-streaming
// composition (dense vectors through the allocating sigvec.Build). It
// exists solely for the golden-equivalence gate, which proves the
// streaming sparse pipeline produces byte-identical study reports; it is
// only set by tests in this package.
var legacySignaturePath = false

// discoverArena is the reusable per-run working set of discoverRun: the
// signature-vector storage, the point/weight lists handed to clustering,
// and the sigvec.Builder with its cached projection rows. Everything in
// it is dead once discoverRun returns (clustering results copy what they
// keep), so runs draw arenas from a pool — concurrent runs each hold
// their own — and the steady-state discovery loop allocates nothing here.
type discoverArena struct {
	// Vector storage, carved dims floats at a time out of fixed blocks.
	// Blocks are never resized once allocated, so handed-out vectors keep
	// stable backing across the whole run; reset just rewinds the cursor
	// (every vector cell is overwritten before use by the builder).
	blocks    [][]float64
	cur, used int

	points  []simpoint.Point
	weights []float64

	builder     *sigvec.Builder
	builderOpts sigvec.Options
}

var discoverArenaPool = sync.Pool{New: func() any { return new(discoverArena) }}

func (a *discoverArena) reset() {
	a.cur, a.used = 0, 0
	a.points = a.points[:0]
	a.weights = a.weights[:0]
}

// vec hands out the next dims-float vector from the arena's blocks.
func (a *discoverArena) vec(dims int) []float64 {
	for {
		if a.cur < len(a.blocks) {
			if b := a.blocks[a.cur]; a.used+dims <= len(b) {
				v := b[a.used : a.used+dims : a.used+dims]
				a.used += dims
				return v
			}
			a.cur++
			a.used = 0
			continue
		}
		a.blocks = append(a.blocks, make([]float64, 256*dims))
		a.cur = len(a.blocks) - 1
		a.used = 0
	}
}

// builderFor returns the arena's Builder for opts, reusing the cached
// projection rows when the options match the previous run's.
func (a *discoverArena) builderFor(opts sigvec.Options) *sigvec.Builder {
	if a.builder == nil || a.builderOpts != opts {
		a.builder = sigvec.NewBuilder(opts)
		a.builderOpts = opts
	}
	return a.builder
}

// discoverRun executes one instrumented discovery run and clusters it.
// Run 0 is the canonical run: it collects LDVs and returns them as the
// baseline for the jittered runs. Runs ≥ 1 reuse the supplied baseline.
// Each run's randomness is derived solely from (cfg.Seed, run), so runs
// are independent of execution order.
func discoverRun(build ProgramBuilder, cfg DiscoveryConfig, run int, base *LDVBaseline) (BarrierPointSet, *LDVBaseline, error) {
	variant, mach, opts, maxK, err := discoverySetup(cfg)
	if err != nil {
		return BarrierPointSet{}, nil, err
	}
	if run > 0 && base == nil {
		return BarrierPointSet{}, nil, fmt.Errorf("core: jittered discovery run %d needs the canonical run's LDV baseline", run)
	}
	// The projected LDV half sits after the BBV half (or is the whole
	// vector in the LDV-only ablation). opts.Dim is always explicit here:
	// discoverySetup resolves it from the defaulted cfg.SigDim.
	ldvOff, ldvDim := 0, 0
	if opts.UseLDV {
		ldvDim = opts.Dim
		if opts.UseBBV {
			ldvOff = opts.Dim
		}
	}
	if run > 0 && base.dim != ldvDim {
		return BarrierPointSet{}, nil, fmt.Errorf("core: jittered discovery run %d: LDV baseline rows are %d floats wide, the configuration projects %d",
			run, base.dim, ldvDim)
	}

	prog, err := build(cfg.Threads, variant)
	if err != nil {
		return BarrierPointSet{}, nil, fmt.Errorf("core: building %d-thread x86_64 program: %w", cfg.Threads, err)
	}
	runCfg := omp.Config{Machine: mach, Variant: variant, Threads: cfg.Threads, WarmCaches: true}
	pinOpts := pin.Options{}
	if run > 0 {
		runCfg.Jitter = xrand.Derive(cfg.Seed, fmt.Sprintf("discovery-jitter-%d", run))
		// Interleaving jitter perturbs how loop iterations split
		// across threads by a fraction of a percent — enough to move
		// signatures and occasionally change the clustering, as the
		// paper observes across its ten runs, without fabricating
		// sub-phases that do not exist.
		runCfg.JitterFrac = 0.005
		runCfg.SkipMemory = true // BBV-only runs need no memory simulation
		pinOpts.SkipLDV = true
	}

	// One reusable Builder serves every barrier point of the run, and the
	// signature vectors themselves come from the pooled arena — both are
	// dead once clustering returns, so the steady-state per-point cost is
	// the projection arithmetic alone. Jittered runs (run > 0) copy the
	// canonical run's already-projected LDV rows under the streamed sparse
	// BBV instead of re-projecting the dense baseline.
	arena := discoverArenaPool.Get().(*discoverArena)
	arena.reset()
	defer discoverArenaPool.Put(arena)
	builder := arena.builderFor(opts)
	dims := builder.Dims()
	var newBase *LDVBaseline
	if run == 0 {
		// Presize the projected-row storage: the canonical run observes
		// exactly one barrier point per region execution.
		newBase = &LDVBaseline{dim: ldvDim, proj: make([]float64, 0, len(prog.Regions)*ldvDim)}
	}
	err = pin.Stream(prog, runCfg, pinOpts, func(s pin.Signature) {
		var vec []float64
		if !legacySignaturePath {
			vec = arena.vec(dims)
		}
		switch {
		case legacySignaturePath:
			ldv := s.LDV
			if run > 0 && opts.UseLDV {
				if s.Index < len(base.raw) {
					ldv = base.raw[s.Index]
				} else {
					ldv = make([]float64, pin.NumDistBins*cfg.Threads)
				}
			}
			vec = sigvec.Build(s.BBV, ldv, opts)
		case run == 0:
			builder.BuildSparseInto(vec,
				s.BBVSparse.Idx, s.BBVSparse.Val, s.LDVSparse.Idx, s.LDVSparse.Val)
		case opts.UseLDV:
			// The sparse build zeroes the LDV half (bit-identical to
			// projecting an all-zero LDV, the past-the-horizon case);
			// points the canonical run saw overwrite it with its
			// projected row.
			builder.BuildSparseInto(vec, s.BBVSparse.Idx, s.BBVSparse.Val, nil, nil)
			if s.Index < base.n {
				copy(vec[ldvOff:ldvOff+ldvDim], base.projRow(s.Index))
			}
		default:
			builder.BuildSparseInto(vec, s.BBVSparse.Idx, s.BBVSparse.Val, nil, nil)
		}
		if run == 0 {
			newBase.addPoint(vec[ldvOff:ldvOff+ldvDim], s.LDV, legacySignaturePath)
		}
		arena.points = append(arena.points, simpoint.Point{Vec: vec, Weight: s.Instructions})
		arena.weights = append(arena.weights, s.Instructions)
	})
	if err != nil {
		return BarrierPointSet{}, nil, fmt.Errorf("core: discovery run %d: %w", run, err)
	}
	points, weights := arena.points, arena.weights

	spCfg := simpoint.DefaultConfig(xrand.Derive(cfg.Seed, fmt.Sprintf("kmeans-%d", run)).Uint64())
	spCfg.MaxK = maxK
	// Searching up to n clusters over a handful of barrier points
	// degenerates into selecting nearly everything; cap the search at
	// half the points for very short executions like MCB's ten
	// regions.
	if half := (len(points) + 1) / 2; spCfg.MaxK > half {
		spCfg.MaxK = half
	}
	res, err := simpoint.Cluster(points, spCfg)
	if err != nil {
		return BarrierPointSet{}, nil, fmt.Errorf("core: clustering run %d: %w", run, err)
	}

	set := BarrierPointSet{
		Run:         run,
		Threads:     cfg.Threads,
		Vectorised:  cfg.Vectorised,
		TotalPoints: len(points),
	}
	for _, w := range weights {
		set.TotalInstructions += w
	}
	for c, rep := range res.Representatives {
		if rep < 0 {
			continue
		}
		set.Selected = append(set.Selected, SelectedPoint{
			Index:        rep,
			Multiplier:   res.Multipliers[c],
			Instructions: weights[rep],
		})
	}
	sortSelected(set.Selected)
	return set, newBase, nil
}

// DiscoverBaseline performs the canonical (unjittered) discovery run:
// full BBV+LDV instrumentation, clustering, and the LDV baseline the
// jittered runs reuse. It is the sequential head of discovery; the
// remaining cfg.Runs-1 jittered runs are mutually independent and may
// execute in any order or concurrently (see internal/sched).
func DiscoverBaseline(build ProgramBuilder, cfg DiscoveryConfig) (BarrierPointSet, *LDVBaseline, error) {
	return discoverRun(build, cfg, 0, nil)
}

// DiscoverJittered performs jittered discovery run `run` (≥ 1) against
// the canonical run's LDV baseline. Runs are deterministic functions of
// (cfg.Seed, run): the same arguments produce the same set regardless of
// how many other runs execute, or in what order.
func DiscoverJittered(build ProgramBuilder, cfg DiscoveryConfig, run int, base *LDVBaseline) (BarrierPointSet, error) {
	if run <= 0 {
		return BarrierPointSet{}, fmt.Errorf("core: jittered discovery run index must be ≥ 1, got %d", run)
	}
	set, _, err := discoverRun(build, cfg, run, base)
	return set, err
}

// Discover performs cfg.Runs instrumented discovery runs on the x86_64
// platform, clustering each run's signature vectors into a barrier point
// set. It is the serial reference composition of DiscoverBaseline and
// DiscoverJittered; sched.Run executes the same per-run primitives
// concurrently with byte-identical results.
func Discover(build ProgramBuilder, cfg DiscoveryConfig) ([]BarrierPointSet, error) {
	cfg = cfg.WithDefaults()
	build = memoizeBuilder(build)
	sets := make([]BarrierPointSet, 0, cfg.Runs)
	set, base, err := DiscoverBaseline(build, cfg)
	if err != nil {
		return nil, err
	}
	sets = append(sets, set)
	for run := 1; run < cfg.Runs; run++ {
		set, err := DiscoverJittered(build, cfg, run, base)
		if err != nil {
			return nil, err
		}
		sets = append(sets, set)
	}
	return sets, nil
}

// memoizeBuilder wraps a ProgramBuilder so repeated runs of one serial
// Discover share the built program: builders are deterministic in
// (threads, variant) and the runtime never mutates a program, so every
// run would otherwise rebuild an identical structure. Not safe for
// concurrent use — the scheduler path manages its own program sharing.
func memoizeBuilder(build ProgramBuilder) ProgramBuilder {
	type key struct {
		threads int
		variant isa.Variant
	}
	cache := make(map[key]*trace.Program)
	return func(threads int, v isa.Variant) (*trace.Program, error) {
		k := key{threads, v}
		if p, ok := cache[k]; ok {
			return p, nil
		}
		p, err := build(threads, v)
		if err != nil {
			return nil, err
		}
		cache[k] = p
		return p, nil
	}
}

// sortSelected orders representatives by execution index (insertion sort;
// sets have at most ~20 entries).
func sortSelected(sel []SelectedPoint) {
	for i := 1; i < len(sel); i++ {
		for j := i; j > 0 && sel[j].Index < sel[j-1].Index; j-- {
			sel[j], sel[j-1] = sel[j-1], sel[j]
		}
	}
}
