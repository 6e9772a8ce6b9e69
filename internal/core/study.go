package core

import (
	"errors"
	"fmt"

	"barrierpoint/internal/isa"
)

// StudyConfig parameterises one full cross-architectural evaluation of a
// workload at one thread count and vectorisation setting: discovery on
// x86_64, collection on both platforms, validation of every discovered set
// against both.
type StudyConfig struct {
	Threads    int
	Vectorised bool
	// Runs is the number of discovery runs (default 10, as in the paper).
	Runs int
	// Reps is the number of measurement repetitions (default 20).
	Reps int
	Seed uint64
	// MaxK caps the clustering search.
	MaxK int
}

// WithDefaults returns the configuration with unset fields filled in with
// the paper's values. Every study entry point (serial RunStudy, the
// scheduler, the HTTP service) normalises through it, so the same request
// always describes the same work — a prerequisite for content-addressed
// caching.
func (cfg StudyConfig) WithDefaults() StudyConfig {
	if cfg.Runs <= 0 {
		cfg.Runs = 10
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 20
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 20
	}
	return cfg
}

// Discovery returns the Step-2 configuration the study implies.
func (cfg StudyConfig) Discovery() DiscoveryConfig {
	disc := DefaultDiscovery(cfg.Threads, cfg.Vectorised, cfg.Seed)
	disc.Runs = cfg.Runs
	disc.MaxK = cfg.MaxK
	return disc
}

// Collections returns the Step-3 configurations for the two target
// platforms, x86_64 first. The ARM collection derives its noise from
// Seed+1 so the two platforms' measurement noise is independent.
func (cfg StudyConfig) Collections() [2]CollectConfig {
	return [2]CollectConfig{
		{
			Variant: isa.Variant{ISA: isa.X8664(), Vectorised: cfg.Vectorised},
			Threads: cfg.Threads, Reps: cfg.Reps, Seed: cfg.Seed,
		},
		{
			Variant: isa.Variant{ISA: isa.ARMv8(), Vectorised: cfg.Vectorised},
			Threads: cfg.Threads, Reps: cfg.Reps, Seed: cfg.Seed + 1,
		},
	}
}

// SetEvaluation scores one discovered barrier point set against both
// target architectures.
type SetEvaluation struct {
	Set BarrierPointSet
	// X86 is the same-architecture validation (x86_64 discovery applied
	// to the x86_64 run). Nil only on error.
	X86 *Validation
	// ARM is the cross-architecture validation. Nil when the set cannot
	// be applied (ARMErr explains why).
	ARM    *Validation
	ARMErr error
}

// StudyResult is one workload/configuration row of the evaluation.
type StudyResult struct {
	App    string
	Config StudyConfig
	// TotalBPs is the number of barrier points in the x86_64 execution.
	TotalBPs int
	// Applicability reports the Section V-B checks for the best set.
	Applicability Applicability
	// Evals holds one entry per discovery run.
	Evals []SetEvaluation
	// Best indexes the evaluation with the lowest combined error across
	// metrics and architectures (the "barrier point set with the lowest
	// error" the paper's figures show).
	Best int
	// X86Col / ARMCol are the underlying collections (exported for the
	// experiment drivers: overhead studies, per-BP phase plots).
	X86Col *Collection
	ARMCol *Collection
}

// BestEval returns the best-scoring evaluation.
func (r *StudyResult) BestEval() *SetEvaluation { return &r.Evals[r.Best] }

// MinMaxSelected returns the smallest and largest number of barrier points
// selected across the discovery runs (Table III columns Min/Max).
func (r *StudyResult) MinMaxSelected() (min, max int) {
	for i, e := range r.Evals {
		n := len(e.Set.Selected)
		if i == 0 || n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	return min, max
}

// EvaluateSet validates one discovered barrier point set against both
// target collections (Steps 4+5 for one set). It is arithmetic over
// artifacts already computed, so the scheduler runs it as a study's
// assembly step, over every set in run order, rather than as a unit.
func EvaluateSet(app string, idx int, set *BarrierPointSet, x86Col, armCol *Collection) (SetEvaluation, error) {
	eval := SetEvaluation{Set: *set}
	var err error
	eval.X86, err = Validate(set, x86Col)
	if err != nil {
		return eval, fmt.Errorf("core: study %s validating set %d on x86_64: %w", app, idx, err)
	}
	eval.ARM, eval.ARMErr = Validate(set, armCol)
	if eval.ARMErr != nil && !errors.Is(eval.ARMErr, ErrRegionCountMismatch) {
		return eval, fmt.Errorf("core: study %s validating set %d on ARMv8: %w", app, idx, eval.ARMErr)
	}
	return eval, nil
}

// evalScore ranks one evaluation: mean error across metrics and
// architectures, tie-broken toward smaller sets — when two sets estimate
// equally well, the one with fewer barrier points needs less simulation
// (the trade-off Section VI-B discusses).
func evalScore(eval *SetEvaluation) float64 {
	score := eval.X86.MeanErrPct()
	if eval.ARM != nil {
		score = (score + eval.ARM.MeanErrPct()) / 2
	}
	return score + 0.02*float64(len(eval.Set.Selected))
}

// AssembleStudy builds the final StudyResult from the per-unit outcomes.
// The evaluations must be in discovery-run order; assembly iterates them
// in that order, so the result is independent of how (or how concurrently)
// the units were executed.
func AssembleStudy(app string, cfg StudyConfig, evals []SetEvaluation, x86Col, armCol *Collection) *StudyResult {
	res := &StudyResult{
		App:      app,
		Config:   cfg,
		TotalBPs: evals[0].Set.TotalPoints,
		X86Col:   x86Col,
		ARMCol:   armCol,
		Evals:    evals,
	}
	bestScore := -1.0
	for i := range evals {
		score := evalScore(&evals[i])
		if bestScore < 0 || score < bestScore {
			bestScore = score
			res.Best = i
		}
	}
	best := res.BestEval()
	res.Applicability = CheckApplicability(&best.Set, x86Col, armCol)
	return res
}

// RunStudy executes the full Section V workflow for one workload and
// configuration. It is the serial reference composition of the study's
// units — discovery runs and per-variant collections — and its per-set
// validations, which internal/sched executes concurrently with
// byte-identical results.
func RunStudy(app string, build ProgramBuilder, cfg StudyConfig) (*StudyResult, error) {
	cfg = cfg.WithDefaults()

	sets, err := Discover(build, cfg.Discovery())
	if err != nil {
		return nil, fmt.Errorf("core: study %s: %w", app, err)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("core: study %s produced no barrier point sets", app)
	}

	colCfgs := cfg.Collections()
	x86Col, err := Collect(build, colCfgs[0])
	if err != nil {
		return nil, fmt.Errorf("core: study %s x86_64 collection: %w", app, err)
	}
	armCol, err := Collect(build, colCfgs[1])
	if err != nil {
		return nil, fmt.Errorf("core: study %s ARMv8 collection: %w", app, err)
	}

	evals := make([]SetEvaluation, len(sets))
	for i := range sets {
		evals[i], err = EvaluateSet(app, i, &sets[i], x86Col, armCol)
		if err != nil {
			return nil, err
		}
	}
	return AssembleStudy(app, cfg, evals, x86Col, armCol), nil
}
