package experiments

import (
	"errors"
	"fmt"
	"io"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/report"
)

// Limits reproduces the Section V-B limitation analysis: the
// embarrassingly parallel applications whose single barrier point offers
// no simulation-time gain, and HPGMG-FV's architecture-dependent region
// count that breaks cross-architecture mapping.
func Limits(r *Runner, w io.Writer) error {
	t := report.Table{
		Title:  "Section V-B: methodology applicability limitations",
		Header: []string{"Application", "Barrier points (x86/ARM)", "Applicable", "Reason"},
	}
	threads := r.cfg.maxThreads()

	for _, name := range []string{"RSBench", "XSBench", "PathFinder", "HPGMG-FV", "LULESH"} {
		a, err := apps.ByName(name)
		if err != nil {
			return err
		}
		sets, err := r.Discover(name, a.Build, core.DiscoveryConfig{
			Threads: threads, Runs: 1, Seed: r.cfg.Seed,
		})
		if err != nil {
			return err
		}
		set := &sets[0]

		armCol, err := r.Collect(name, a.Build, core.CollectConfig{
			Variant: isa.Variant{ISA: isa.ARMv8()},
			Threads: threads, Reps: 2, Seed: r.cfg.Seed,
		})
		if err != nil {
			return err
		}
		app := core.CheckApplicability(set, armCol)
		counts := fmt.Sprintf("%d / %d", set.TotalPoints, armCol.NumBarrierPoints())
		status := "yes"
		reason := ""
		switch {
		case !app.OK:
			status = "no"
			reason = app.Reason
		case name == "LULESH":
			reason = "applies, but very short regions make estimates inaccurate (Fig. 2g)"
		}
		_, rerr := core.Reconstruct(set, armCol)
		if errors.Is(rerr, core.ErrRegionCountMismatch) && app.OK {
			status = "no"
			reason = rerr.Error()
		}
		t.AddRow(name, counts, status, reason)
	}
	t.Render(w)
	return nil
}

// OverheadVariability reproduces the Section V-C study: run-to-run
// measurement variability (coefficient of variation) and per-barrier-point
// instrumentation overhead, per application and platform.
func OverheadVariability(r *Runner, w io.Writer) error {
	t := report.Table{
		Title: "Section V-C: statistic collection overhead and variability (8 threads, non-vectorised)",
		Header: []string{"Application", "Platform",
			"CV cyc (%)", "CV ins (%)", "CV L1D (%)", "CV L2D (%)",
			"Ovh cyc (%)", "Ovh ins (%)", "Ovh L1D (%)", "Ovh L2D (%)"},
		Notes: []string{
			"CV: count-weighted per-barrier-point coefficient of variation over repeated measurements.",
			"Ovh: inflation of summed per-barrier-point measurements vs. the uninstrumented run.",
		},
	}
	names := make([]string, 0, 8)
	for _, a := range apps.Evaluated() {
		names = append(names, a.Name)
	}
	names = append(names, "HPGMG-FV")
	threads := r.cfg.maxThreads()

	for _, name := range names {
		a, err := apps.ByName(name)
		if err != nil {
			return err
		}
		for _, arch := range []*isa.ISA{isa.X8664(), isa.ARMv8()} {
			col, err := r.Collect(name, a.Build, core.CollectConfig{
				Variant: isa.Variant{ISA: arch},
				Threads: threads, Reps: r.cfg.Reps, Seed: r.cfg.Seed,
			})
			if err != nil {
				return err
			}
			row := []string{name, arch.Name}
			for m := machine.Metric(0); m < machine.NumMetrics; m++ {
				row = append(row, report.Pct(weightedPerBPCV(col, m)*100))
			}
			for m := machine.Metric(0); m < machine.NumMetrics; m++ {
				row = append(row, report.Pct(instrumentationOverheadPct(col, m)))
			}
			t.AddRow(row...)
		}
	}
	t.Render(w)
	return nil
}

// weightedPerBPCV returns the count-weighted mean coefficient of variation
// of per-barrier-point measurements for one metric: sum of standard
// deviations over sum of means. Large regions dominate, as they do in the
// paper's workload-level variation numbers, while workloads whose counts
// are uniformly tiny relative to the noise floor (CoMD's L1D misses on
// ARMv8) still stand out.
func weightedPerBPCV(col *core.Collection, m machine.Metric) float64 {
	var stds, means float64
	for i := range col.PerBP {
		for t := range col.PerBP[i] {
			stds += col.PerBPStd[i][t][m]
			means += col.PerBP[i][t][m]
		}
	}
	if means == 0 {
		return 0
	}
	return stds / means
}

// instrumentationOverheadPct returns how much the summed per-barrier-point
// measurements exceed the uninstrumented full-run measurement, in percent.
func instrumentationOverheadPct(col *core.Collection, m machine.Metric) float64 {
	var summed, full float64
	for i := range col.PerBP {
		for t := range col.PerBP[i] {
			summed += col.PerBP[i][t][m]
		}
	}
	for t := range col.Full {
		full += col.Full[t][m]
	}
	if full == 0 {
		return 0
	}
	return (summed - full) / full * 100
}

// headlineApps are the six applications whose estimates the paper calls
// accurate; the Section VI headline aggregates over them.
var headlineApps = []string{"AMGMk", "CoMD", "graph500", "HPCG", "MCB", "miniFE"}

// HeadlineRow is one (application, vectorisation) configuration's best
// barrier point set, as the headline aggregates it.
type HeadlineRow struct {
	App        string
	Vectorised bool
	// CycErrPct and InsErrPct are the larger of the set's x86_64 and
	// ARMv8 average absolute estimation errors (x86_64 alone when the set
	// does not map to ARMv8).
	CycErrPct, InsErrPct float64
	// Selected of Total barrier points were selected; they execute
	// SelectedPct of the workload's instructions.
	Selected, Total int
	SelectedPct     float64
	// Speedup is the simulation-time reduction, 100 / SelectedPct.
	Speedup float64
}

// HeadlineNumbers are the Section VI headline: one row per configuration
// and the four aggregates the paper quotes.
type HeadlineNumbers struct {
	Threads int
	Rows    []HeadlineRow
	// WorstCycErrPct and WorstInsErrPct are the largest row errors.
	WorstCycErrPct, WorstInsErrPct float64
	// MinSelectedPct and MaxSelectedPct bound the rows' selected
	// instruction shares; a row selecting nothing is left out.
	MinSelectedPct, MaxSelectedPct float64
	// BestSpeedup is the largest row speed-up.
	BestSpeedup float64
}

// HeadlineResults computes the Section VI / abstract headline numbers:
// each accurate application's best set at the largest configured thread
// count, scalar and vectorised, and the maximum cycle and instruction
// estimation error, the range of instructions selected and the best
// simulation-time reduction over them.
func HeadlineResults(r *Runner) (HeadlineNumbers, error) {
	h := HeadlineNumbers{Threads: r.cfg.maxThreads(), MinSelectedPct: 100}
	for _, sp := range studyGrid(headlineApps, []int{h.Threads}) {
		res, err := r.Study(sp.App, sp.Threads, sp.Vectorised)
		if err != nil {
			return HeadlineNumbers{}, err
		}
		best := res.BestEval()
		row := HeadlineRow{App: sp.App, Vectorised: sp.Vectorised,
			Selected: len(best.Set.Selected), Total: best.Set.TotalPoints,
			SelectedPct: best.Set.InstructionsSelectedPct(), Speedup: best.Set.Speedup()}
		for _, v := range []*core.Validation{best.X86, best.ARM} {
			if v != nil {
				raise(&row.CycErrPct, v.AvgAbsErrPct[machine.Cycles])
				raise(&row.InsErrPct, v.AvgAbsErrPct[machine.Instructions])
			}
		}
		h.Rows = append(h.Rows, row)
		raise(&h.WorstCycErrPct, row.CycErrPct)
		raise(&h.WorstInsErrPct, row.InsErrPct)
		if row.SelectedPct > 0 {
			if row.SelectedPct < h.MinSelectedPct {
				h.MinSelectedPct = row.SelectedPct
			}
			raise(&h.MaxSelectedPct, row.SelectedPct)
		}
		raise(&h.BestSpeedup, row.Speedup)
	}
	return h, nil
}

// raise sets *m to v when v is larger. Unlike the max builtin, a NaN
// never raises it.
func raise(m *float64, v float64) {
	if v > *m {
		*m = v
	}
}

// Render prints the headline aggregates beside the paper's bands.
func (h HeadlineNumbers) Render(w io.Writer) {
	fmt.Fprintf(w, "Headline results (%d threads, six accurate applications, both ISAs, scalar+vectorised):\n", h.Threads)
	fmt.Fprintf(w, "  worst cycle estimation error:        %.2f%%  (paper: <2.3%%)\n", h.WorstCycErrPct)
	fmt.Fprintf(w, "  worst instruction estimation error:  %.2f%%  (paper: <2.3%%)\n", h.WorstInsErrPct)
	fmt.Fprintf(w, "  instructions executed (selected BPs): %.2f%% - %.2f%% of the full workload (paper: 0.6%% - 39%%)\n", h.MinSelectedPct, h.MaxSelectedPct)
	fmt.Fprintf(w, "  best simulation-time reduction:      %.0fx  (paper: up to 178x)\n", h.BestSpeedup)
	fmt.Fprintln(w)
}

// Headline reproduces the Section VI / abstract headline numbers (see
// HeadlineResults).
func Headline(r *Runner, w io.Writer) error {
	h, err := HeadlineResults(r)
	if err != nil {
		return err
	}
	h.Render(w)
	return nil
}
