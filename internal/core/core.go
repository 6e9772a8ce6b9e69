// Package core implements the paper's contribution: the cross-architectural
// BarrierPoint workflow of Section V.
//
// The five steps map onto this package as follows:
//
//  1. Source instrumentation — the trace IR already delimits parallel
//     regions, and four binary variants exist per workload
//     (isa.Variants()).
//  2. Barrier point discovery and clustering (x86_64 only) — Discover:
//     collect BBV+LDV signatures with the pin substrate, combine them into
//     signature vectors, cluster with simpoint, repeated over several
//     seeded runs to capture thread-interleaving variability. Each run
//     yields a BarrierPointSet with per-point multipliers.
//  3. Barrier point statistic collection — Collect: run each binary
//     variant natively on its machine model with PAPI-style counter
//     instrumentation, 20 repetitions, per-thread, per barrier point and
//     for the whole region of interest.
//  4. Program behaviour reconstruction — Reconstruct: multiplier-weighted
//     sums of the selected barrier points' measured counters.
//  5. Barrier point set validation — Validate: estimation error of the
//     reconstruction against the measured full run.
package core

import (
	"errors"
	"fmt"

	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/stats"
	"barrierpoint/internal/trace"
)

// ProgramBuilder constructs a workload's program for a thread count and
// binary variant. Builders must be deterministic: the same arguments must
// describe the same program (region structure may legitimately depend on
// the arguments, as HPGMG-FV's does on the ISA).
type ProgramBuilder func(threads int, v isa.Variant) (*trace.Program, error)

// ErrRegionCountMismatch is returned when a barrier point set discovered on
// one architecture cannot be applied to a collection from another because
// the executions have different numbers of barrier points (the paper's
// HPGMG-FV failure mode: architecture-dependent convergence).
var ErrRegionCountMismatch = errors.New("barrier point count differs between discovery and collection")

// SelectedPoint is one representative barrier point.
type SelectedPoint struct {
	// Index is the barrier point's execution index.
	Index int
	// Multiplier scales the point's counters to stand in for its whole
	// cluster.
	Multiplier float64
	// Instructions is the point's instruction weight from discovery
	// profiling (used for the speed-up accounting of Table IV).
	Instructions float64
}

// BarrierPointSet is the outcome of one discovery run: the paper computes
// ten such sets per configuration and studies their spread.
type BarrierPointSet struct {
	// Run is the discovery run index the set came from.
	Run int
	// Threads and Vectorised identify the configuration.
	Threads    int
	Vectorised bool
	// TotalPoints is the total number of barrier points in the execution.
	TotalPoints int
	// TotalInstructions is the whole execution's instruction weight.
	TotalInstructions float64
	// Selected lists the representatives in execution order.
	Selected []SelectedPoint
}

// InstructionsSelectedPct returns the percentage of the workload's
// instructions covered by running only the selected barrier points
// (Table IV column "Total").
func (s *BarrierPointSet) InstructionsSelectedPct() float64 {
	if s.TotalInstructions == 0 {
		return 0
	}
	var sel float64
	for _, p := range s.Selected {
		sel += p.Instructions
	}
	return sel / s.TotalInstructions * 100
}

// LargestBPPct returns the largest selected barrier point's share of total
// instructions (Table IV column "Largest BP" — the simulation-time bound
// when barrier points are simulated in parallel).
func (s *BarrierPointSet) LargestBPPct() float64 {
	if s.TotalInstructions == 0 {
		return 0
	}
	var largest float64
	for _, p := range s.Selected {
		if p.Instructions > largest {
			largest = p.Instructions
		}
	}
	return largest / s.TotalInstructions * 100
}

// Speedup returns the simulation-time reduction factor from executing only
// the selected instructions (Table IV column "Speedup").
func (s *BarrierPointSet) Speedup() float64 {
	pct := s.InstructionsSelectedPct()
	if pct == 0 {
		return 0
	}
	return 100 / pct
}

// Applicability reports whether the methodology helps for a workload
// (Section V-B's limitations).
type Applicability struct {
	OK     bool
	Reason string
}

// CheckApplicability evaluates the Section V-B criteria for a discovered
// set against collections on the two target architectures.
func CheckApplicability(set *BarrierPointSet, targets ...*Collection) Applicability {
	if set.TotalPoints <= 1 {
		return Applicability{OK: false,
			Reason: "single parallel region: the only barrier point is the whole core loop, no simulation-time gain"}
	}
	for _, col := range targets {
		if col != nil && col.NumBarrierPoints() != set.TotalPoints {
			return Applicability{OK: false,
				Reason: fmt.Sprintf("barrier point count mismatch: discovery saw %d, %s executed %d (architecture-dependent convergence)",
					set.TotalPoints, col.Machine.Name, col.NumBarrierPoints())}
		}
	}
	return Applicability{OK: true}
}

// avgAbsErr returns the mean over threads of the absolute percentage error
// between per-thread estimates and references for one metric.
func avgAbsErr(est, ref []machine.Counters, m machine.Metric) float64 {
	if len(est) == 0 {
		return 0
	}
	var sum float64
	for t := range est {
		sum += stats.AbsPctError(est[t][m], ref[t][m])
	}
	return sum / float64(len(est))
}
