package core

import (
	"fmt"
	"math"

	"barrierpoint/internal/machine"
)

// Reconstruct estimates the whole run's per-thread counters from a barrier
// point set and a collection (Step 4): the multiplier-weighted sum of the
// selected barrier points' measured counters.
//
// The set may come from a different architecture than the collection —
// that is the paper's central experiment — but the barrier point counts
// must match, otherwise ErrRegionCountMismatch is returned (the HPGMG-FV
// failure). Collections may arrive from other processes, so one whose
// counters do not cover its Threads is an error, not an index panic.
func Reconstruct(set *BarrierPointSet, col *Collection) ([]machine.Counters, error) {
	if col.Threads <= 0 || len(col.Full) != col.Threads || len(col.FullStd) != col.Threads ||
		len(col.PerBPStd) != len(col.PerBP) {
		return nil, fmt.Errorf("core: collection does not cover its %d threads", col.Threads)
	}
	if set.TotalPoints != col.NumBarrierPoints() {
		return nil, fmt.Errorf("core: set has %d barrier points, collection has %d: %w",
			set.TotalPoints, col.NumBarrierPoints(), ErrRegionCountMismatch)
	}
	if set.Threads != col.Threads {
		return nil, fmt.Errorf("core: set discovered with %d threads, collection ran %d",
			set.Threads, col.Threads)
	}
	est := make([]machine.Counters, col.Threads)
	for _, sel := range set.Selected {
		if sel.Index < 0 || sel.Index >= col.NumBarrierPoints() {
			return nil, fmt.Errorf("core: selected barrier point %d out of range [0,%d)",
				sel.Index, col.NumBarrierPoints())
		}
		if len(col.PerBP[sel.Index]) < col.Threads || len(col.PerBPStd[sel.Index]) < col.Threads {
			return nil, fmt.Errorf("core: collection's barrier point %d does not cover its %d threads",
				sel.Index, col.Threads)
		}
		for t := 0; t < col.Threads; t++ {
			est[t] = est[t].Add(col.PerBP[sel.Index][t].Scale(sel.Multiplier))
		}
	}
	return est, nil
}

// Validation is the outcome of Step 5 for one (set, collection) pair.
type Validation struct {
	// AvgAbsErrPct is, per metric, the mean over threads of the absolute
	// percentage error of the reconstruction against the measured full
	// run — the quantity plotted in the paper's Figure 2.
	AvgAbsErrPct [machine.NumMetrics]float64
	// MaxStdDevPct is, per metric, the maximum over threads of the
	// reconstruction's propagated run-to-run standard deviation, relative
	// to the full-run value (the paper's error bars).
	MaxStdDevPct [machine.NumMetrics]float64
	// Estimate and Reference are the per-thread reconstruction and
	// full-run measurements.
	Estimate  []machine.Counters
	Reference []machine.Counters
}

// WorstErrPct returns the largest average error across metrics — a scalar
// used to rank barrier point sets.
func (v *Validation) WorstErrPct() float64 {
	worst := 0.0
	for _, e := range v.AvgAbsErrPct {
		if e > worst {
			worst = e
		}
	}
	return worst
}

// MeanErrPct returns the mean error across metrics.
func (v *Validation) MeanErrPct() float64 {
	var sum float64
	for _, e := range v.AvgAbsErrPct {
		sum += e
	}
	return sum / float64(machine.NumMetrics)
}

// Validate reconstructs and scores one barrier point set against one
// collection.
func Validate(set *BarrierPointSet, col *Collection) (*Validation, error) {
	est, err := Reconstruct(set, col)
	if err != nil {
		return nil, err
	}
	v := &Validation{Estimate: est, Reference: col.Full}
	for m := machine.Metric(0); m < machine.NumMetrics; m++ {
		v.AvgAbsErrPct[m] = avgAbsErr(est, col.Full, m)
	}
	// Propagate per-barrier-point measurement noise through the weighted
	// sum: Var(sum) = sum multiplier^2 * Var(point).
	for m := machine.Metric(0); m < machine.NumMetrics; m++ {
		var worst float64
		for t := 0; t < col.Threads; t++ {
			var variance float64
			for _, sel := range set.Selected {
				sd := col.PerBPStd[sel.Index][t][m]
				variance += sel.Multiplier * sel.Multiplier * sd * sd
			}
			ref := col.Full[t][m]
			if ref > 0 {
				if pct := math.Sqrt(variance) / ref * 100; pct > worst {
					worst = pct
				}
			}
		}
		v.MaxStdDevPct[m] = worst
	}
	return v, nil
}
