// Package barrierpoint is a full reimplementation and simulation-based
// reproduction of "Crossing the Architectural Barrier: Evaluating
// Representative Regions of Parallel HPC Applications" (Ferrerón, Jagtap,
// Bischoff, Rușitoru — ISPASS 2017).
//
// The library implements the cross-architectural BarrierPoint methodology:
// an OpenMP workload is split at its barriers into barrier points, each
// barrier point is characterised by abstract signatures (basic block
// vectors and LRU-stack distance vectors), SimPoint-style k-means
// clustering selects representative barrier points with multipliers on the
// x86_64 platform, per-point performance counters measured natively on
// x86_64 and ARMv8 machine models reconstruct full-program behaviour, and
// validation reports the estimation error against the measured full run.
//
// The top-level API mirrors the paper's Section V workflow:
//
//	sets, err := barrierpoint.Discover(app.Build, barrierpoint.DefaultDiscovery(8, false, seed))
//	col, err := barrierpoint.Collect(app.Build, barrierpoint.CollectConfig{Variant: v, Threads: 8})
//	val, err := barrierpoint.Validate(&sets[0], col)
//
// or, for the whole cross-architecture evaluation of one workload:
//
//	res, err := barrierpoint.RunStudy("HPCG", app.Build, barrierpoint.StudyConfig{Threads: 8})
//
// Workloads are either the eleven HPC proxy applications from the paper's
// Table I (see Apps, AppByName) or custom programs assembled from the
// workload IR re-exported below (NewProgram, Block, BlockExec).
package barrierpoint

import (
	"context"
	"sync"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/cachestore"
	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/resultcache"
	"barrierpoint/internal/sched"
	"barrierpoint/internal/trace"
)

// Workflow types (Section V).
type (
	// ProgramBuilder constructs a workload for a thread count and binary
	// variant.
	ProgramBuilder = core.ProgramBuilder
	// DiscoveryConfig parameterises barrier point discovery (Step 2).
	DiscoveryConfig = core.DiscoveryConfig
	// BarrierPointSet is one discovery run's selection of representative
	// barrier points with multipliers.
	BarrierPointSet = core.BarrierPointSet
	// SelectedPoint is one representative barrier point.
	SelectedPoint = core.SelectedPoint
	// CollectConfig parameterises native counter collection (Step 3).
	CollectConfig = core.CollectConfig
	// Collection holds measured per-barrier-point and full-run counters.
	Collection = core.Collection
	// Validation is the estimation error of a reconstruction (Step 5).
	Validation = core.Validation
	// Applicability reports the Section V-B applicability checks.
	Applicability = core.Applicability
	// StudyConfig parameterises a full cross-architecture study.
	StudyConfig = core.StudyConfig
	// StudyResult is the outcome of a full cross-architecture study.
	StudyResult = core.StudyResult
	// SetEvaluation scores one barrier point set on both architectures.
	SetEvaluation = core.SetEvaluation
)

// Workflow functions.
var (
	// DefaultDiscovery returns the paper's discovery configuration
	// (10 runs, BBV+LDV signatures, k-means with BIC up to k=20).
	DefaultDiscovery = core.DefaultDiscovery
	// Discover runs Step 2 on the x86_64 platform.
	Discover = core.Discover
	// Collect runs Step 3 on the variant's native platform.
	Collect = core.Collect
	// Reconstruct runs Step 4: multiplier-weighted counter sums.
	Reconstruct = core.Reconstruct
	// Validate runs Step 5: estimation error against the full run.
	Validate = core.Validate
	// CheckApplicability evaluates the Section V-B limitations.
	CheckApplicability = core.CheckApplicability
)

// studyCache memoises expensive study intermediates (discovery baselines,
// collections, whole studies) across RunStudy calls in this process. The
// LRU bound caps retention at DefaultMaxEntries values for the process
// lifetime — the deliberate trade for repeated and overlapping studies
// returning without recomputation. PersistCache swaps in a disk-backed
// cache, so access goes through getStudyCache.
var (
	studyCacheMu sync.Mutex
	studyCache   = resultcache.New(resultcache.DefaultMaxEntries)
)

func getStudyCache() *resultcache.Cache {
	studyCacheMu.Lock()
	defer studyCacheMu.Unlock()
	return studyCache
}

// PersistCache backs this process's study cache with a persistent
// content-addressed store rooted at dir, so separate invocations of a
// batch tool (or a tool and a bpserved instance) pointed at the same
// directory share previously computed discovery runs, collections, and
// whole studies instead of recomputing them. maxBytes bounds the store's
// on-disk size (0 = unbounded); least recently used artifacts are evicted
// first. The directory is a pure cache — deleting it is always safe.
//
// Call it once at startup, before RunStudy. The returned function flushes
// pending writes, closes the store, and restores the cache that was in
// use before the call; invoke it before the process exits or results
// computed near the end may not reach disk.
func PersistCache(dir string, maxBytes int64) (close func() error, err error) {
	store, err := cachestore.Open(dir, cachestore.Options{MaxBytes: maxBytes})
	if err != nil {
		return nil, err
	}
	c := resultcache.NewWith(resultcache.Config{
		MaxEntries: resultcache.DefaultMaxEntries,
		Store:      store,
	})
	studyCacheMu.Lock()
	prev := studyCache
	studyCache = c
	studyCacheMu.Unlock()
	return func() error {
		studyCacheMu.Lock()
		if studyCache == c {
			// Later RunStudy calls must not hit the closed store.
			studyCache = prev
		}
		studyCacheMu.Unlock()
		return c.Close()
	}, nil
}

// RunStudy executes the whole workflow for one workload/configuration on
// the concurrent study scheduler (internal/sched): discovery runs and
// native collections fan out across a worker pool, the study scores its
// sets as it assembles, and repeated intermediates are served from an
// in-process cache (persistent across processes after PersistCache). The result is byte-identical to the
// serial core.RunStudy reference for the same arguments.
//
// Each call returns its own StudyResult and Evals slice, so reordering or
// replacing evaluations is safe. The deep measurement data (Collections,
// Validations) may be shared with other calls for the same arguments and
// must be treated as read-only.
func RunStudy(app string, build ProgramBuilder, cfg StudyConfig) (*StudyResult, error) {
	res, err := sched.Run(context.Background(), sched.StudyRequest{
		App:    app,
		Build:  build,
		Config: cfg,
	}, sched.Options{Cache: getStudyCache()})
	if err != nil {
		return nil, err
	}
	clone := *res
	clone.Evals = append([]SetEvaluation(nil), res.Evals...)
	return &clone, nil
}

// ErrRegionCountMismatch is returned when a barrier point set cannot be
// applied across architectures because the executions have different
// numbers of barrier points (the paper's HPGMG-FV failure mode).
var ErrRegionCountMismatch = core.ErrRegionCountMismatch

// Machines and metrics.
type (
	// Machine is one evaluation platform (Table II).
	Machine = machine.Machine
	// Metric is one collected hardware counter.
	Metric = machine.Metric
	// Counters holds one value per metric.
	Counters = machine.Counters
)

// Metric values, in the paper's reporting order.
const (
	Cycles       = machine.Cycles
	Instructions = machine.Instructions
	L1DMisses    = machine.L1DMisses
	L2DMisses    = machine.L2DMisses
)

var (
	// IntelI7 returns the Intel Core i7-3770 platform model.
	IntelI7 = machine.IntelI7
	// APMXGene returns the AppliedMicro X-Gene platform model.
	APMXGene = machine.APMXGene
)

// ISAs and binary variants.
type (
	// ISA describes one instruction set architecture.
	ISA = isa.ISA
	// Variant is one of the four binary variants (ISA x vectorisation).
	Variant = isa.Variant
	// OpMix counts abstract operations per block iteration.
	OpMix = isa.OpMix
)

var (
	// X8664 returns the 64-bit Intel ISA with AVX.
	X8664 = isa.X8664
	// ARMv8 returns the 64-bit ARM ISA with Advanced SIMD.
	ARMv8 = isa.ARMv8
	// Variants returns the four binary variants in the paper's order.
	Variants = isa.Variants
)

// Workload IR, for assembling custom programs.
type (
	// Program is a workload: blocks, data regions and parallel regions.
	Program = trace.Program
	// Block is a static basic block.
	Block = trace.Block
	// BlockExec schedules executions of a block inside a region.
	BlockExec = trace.BlockExec
	// DataRegion is an array-like allocation.
	DataRegion = trace.DataRegion
	// Pattern describes a block's memory access pattern.
	Pattern = trace.Pattern
)

// Memory access patterns.
const (
	Sequential   = trace.Sequential
	Strided      = trace.Strided
	Random       = trace.Random
	PointerChase = trace.PointerChase
	Gather       = trace.Gather
	Multi        = trace.Multi
)

// NewProgram returns an empty workload program.
var NewProgram = trace.NewProgram

// Describe writes a human-readable summary of a workload's structure
// (blocks, footprint, region size distribution) to w.
var Describe = trace.Describe

// ComputeStats derives a workload's structural statistics for one variant.
var ComputeStats = trace.ComputeStats

// Stats summarises a workload's static and dynamic structure.
type Stats = trace.Stats

// App is one of the eleven HPC proxy applications of Table I.
type App = apps.App

var (
	// Apps returns all eleven applications in Table I order.
	Apps = apps.All
	// EvaluatedApps returns the seven applications the paper's
	// evaluation covers.
	EvaluatedApps = apps.Evaluated
	// AppByName looks an application up by its Table I name.
	AppByName = apps.ByName
)
