package core

import (
	"fmt"

	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/omp"
	"barrierpoint/internal/papi"
	"barrierpoint/internal/xrand"
)

// Collection is the outcome of Step 3 for one binary variant on its native
// platform: measured per-barrier-point and whole-run counters, per thread,
// averaged over repeated runs.
type Collection struct {
	Variant isa.Variant
	Machine *machine.Machine
	Threads int
	Reps    int

	// PerBP[i][t] is the measured mean of barrier point i on thread t
	// under per-region instrumentation (so it includes the
	// instrumentation's own overhead, as real PMU measurements do).
	PerBP [][]machine.Counters
	// PerBPStd is the matching run-to-run standard deviation.
	PerBPStd [][]machine.Counters
	// Full[t] is the measured mean of the whole region of interest on
	// thread t with only start/end instrumentation.
	Full []machine.Counters
	// FullStd is the matching standard deviation.
	FullStd []machine.Counters
	// TruePerBP and TrueFull are the noise-free, uninstrumented references
	// (unobservable on real hardware; used by the overhead/variability
	// study of Section V-C).
	TruePerBP [][]machine.Counters
	TrueFull  []machine.Counters
}

// NumBarrierPoints returns how many barrier points the execution produced.
func (c *Collection) NumBarrierPoints() int { return len(c.PerBP) }

// CollectConfig parameterises Step 3.
type CollectConfig struct {
	Variant isa.Variant
	Threads int
	// Reps is the number of repeated measurements (the paper uses 20).
	Reps int
	Seed uint64
	// Overhead is the per-counter-read instrumentation cost; zero value
	// means papi.DefaultOverhead.
	Overhead *papi.Overhead
	// Machine overrides the platform (default: the variant's native
	// platform from Table II). Used by the core-type future-work study to
	// collect on an in-order implementation of the same ISA.
	Machine *machine.Machine
	// MultiplexGroups enables PAPI-style counter multiplexing with that
	// many time-sliced event groups (0 or 1 disables it). Collecting a
	// more comprehensive set of counters than the PMU has slots — the
	// paper's future work — requires this and pays extra variance.
	MultiplexGroups int
}

// WithDefaults returns the configuration with unset fields filled in with
// the paper's values — the single source of truth for collection
// defaults, shared by Collect and the scheduler's cache keys.
func (cfg CollectConfig) WithDefaults() CollectConfig {
	if cfg.Reps <= 0 {
		cfg.Reps = 20
	}
	return cfg
}

// Collect runs the binary variant natively on its platform and gathers
// PMU statistics per barrier point and for the whole region of interest.
func Collect(build ProgramBuilder, cfg CollectConfig) (*Collection, error) {
	col, _, err := CollectMem(build, cfg, nil)
	return col, err
}

// CollectMem is Collect with the cache-hierarchy simulation shared: a
// collection is the memory trace, the counters assembled from it, and
// PAPI sampling. Given nil, it simulates the hierarchy and returns the
// trace it recorded; given a trace recorded by a collection of a program
// with the same fingerprint on a machine with the same hierarchy at the
// same thread count, it replays that trace instead of simulating. Either
// way the Collection is bit-identical to Collect's, and the returned
// trace is the one its counters came from.
func CollectMem(build ProgramBuilder, cfg CollectConfig, mem *omp.MemTrace) (*Collection, *omp.MemTrace, error) {
	cfg = cfg.WithDefaults()
	if cfg.Variant.ISA == nil {
		return nil, nil, fmt.Errorf("core: collection needs a binary variant")
	}
	mach := cfg.Machine
	if mach == nil {
		var err error
		if mach, err = machine.Lookup(cfg.Variant.ISA); err != nil {
			return nil, nil, fmt.Errorf("core: collecting %s: %w", cfg.Variant, err)
		}
	}
	if mach.ISA.Name != cfg.Variant.ISA.Name {
		return nil, nil, fmt.Errorf("core: %s binary cannot be collected on %s (a %s machine)",
			cfg.Variant.ISA.Name, mach.Name, mach.ISA.Name)
	}
	prog, err := build(cfg.Threads, cfg.Variant)
	if err != nil {
		return nil, nil, fmt.Errorf("core: building %d-thread %s program: %w",
			cfg.Threads, cfg.Variant, err)
	}
	res, err := omp.Run(prog, omp.Config{
		Machine: mach, Variant: cfg.Variant, Threads: cfg.Threads, WarmCaches: true, Mem: mem,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: native run of %s: %w", cfg.Variant, err)
	}
	if mem == nil {
		mem = res.Mem
	}

	ov := papi.DefaultOverhead()
	if cfg.Overhead != nil {
		ov = *cfg.Overhead
	}
	rng := xrand.Derive(cfg.Seed, "papi-noise-"+cfg.Variant.String())

	col := &Collection{
		Variant: cfg.Variant,
		Machine: mach,
		Threads: cfg.Threads,
		Reps:    cfg.Reps,
	}
	nBP := len(res.Regions)
	col.PerBP = make([][]machine.Counters, nBP)
	col.PerBPStd = make([][]machine.Counters, nBP)
	col.TruePerBP = make([][]machine.Counters, nBP)
	for i, reg := range res.Regions {
		col.PerBP[i] = make([]machine.Counters, cfg.Threads)
		col.PerBPStd[i] = make([]machine.Counters, cfg.Threads)
		col.TruePerBP[i] = make([]machine.Counters, cfg.Threads)
		for t := 0; t < cfg.Threads; t++ {
			truth := reg.PerThread[t]
			col.TruePerBP[i][t] = truth
			instrumented := papi.ApplyOverhead(truth, papi.ReadsPerBarrierPoint, ov)
			m := papi.CollectMultiplexed(instrumented, mach.Noise, rng, cfg.Reps, cfg.MultiplexGroups)
			for k := range col.PerBP[i][t] {
				col.PerBP[i][t][k] = m[k].Mean
				col.PerBPStd[i][t][k] = m[k].StdDev
			}
		}
	}

	col.Full = make([]machine.Counters, cfg.Threads)
	col.FullStd = make([]machine.Counters, cfg.Threads)
	col.TrueFull = res.TotalPerThread()
	for t := 0; t < cfg.Threads; t++ {
		// Region-of-interest-only instrumentation: one read pair for the
		// whole run, negligible but modelled.
		instrumented := papi.ApplyOverhead(col.TrueFull[t], papi.ReadsPerBarrierPoint, ov)
		m := papi.CollectMultiplexed(instrumented, mach.Noise, rng, cfg.Reps, cfg.MultiplexGroups)
		for k := range col.Full[t] {
			col.Full[t][k] = m[k].Mean
			col.FullStd[t][k] = m[k].StdDev
		}
	}
	return col, mem, nil
}
