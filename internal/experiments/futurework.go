package experiments

import (
	"fmt"
	"io"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/report"
)

// FutureWorkCoreTypes implements the first Section VIII proposal:
// "evaluating the applicability of the methodology across different core
// types, such as in-order versus out-of-order". Barrier points discovered
// on the out-of-order x86_64 machine are validated against the ARMv8
// binary running on the out-of-order X-Gene and on an in-order
// (Cortex-A53-class) implementation of the same ISA.
func FutureWorkCoreTypes(r *Runner, w io.Writer) error {
	threads := r.cfg.maxThreads()
	t := report.Table{
		Title: fmt.Sprintf("Future work: in-order vs out-of-order target cores (%d threads, non-vectorised)", threads),
		Header: []string{"Application", "Target core",
			"Err cyc (%)", "Err ins (%)", "Err L1D (%)", "Err L2D (%)"},
		Notes: []string{
			"barrier points discovered once on the out-of-order x86_64 machine;",
			"abstract signatures carry no micro-architecture, so the selection transfers to both core types",
		},
	}
	for _, name := range []string{"AMGMk", "HPCG", "miniFE"} {
		a, err := apps.ByName(name)
		if err != nil {
			return err
		}
		sets, err := r.Discover(name, a.Build, core.DiscoveryConfig{
			Threads: threads, Runs: r.cfg.Runs, Seed: r.cfg.Seed,
		})
		if err != nil {
			return err
		}
		for _, target := range []*machine.Machine{machine.APMXGene(), machine.ARMInOrder()} {
			col, err := r.Collect(name, a.Build, core.CollectConfig{
				Variant: isa.Variant{ISA: isa.ARMv8()},
				Threads: threads, Reps: r.cfg.Reps, Seed: r.cfg.Seed,
				Machine: target,
			})
			if err != nil {
				return err
			}
			best, _, err := bestValidation(sets, col)
			if err != nil {
				return err
			}
			kind := "out-of-order"
			if target.Name != machine.APMXGene().Name {
				kind = "in-order"
			}
			t.AddRow(name, fmt.Sprintf("%s (%s)", target.Name, kind),
				report.Pct(best.AvgAbsErrPct[machine.Cycles]),
				report.Pct(best.AvgAbsErrPct[machine.Instructions]),
				report.Pct(best.AvgAbsErrPct[machine.L1DMisses]),
				report.Pct(best.AvgAbsErrPct[machine.L2DMisses]))
		}
	}
	t.Render(w)
	return nil
}

// FutureWorkCoarsen implements the Section VIII proposal of "adjusting the
// size of barrier points so that more applications benefit": LULESH's
// thousands of very short regions are fused in groups, and the estimation
// error falls as the measurable units grow.
func FutureWorkCoarsen(r *Runner, w io.Writer) error {
	threads := r.cfg.maxThreads()
	t := report.Table{
		Title: fmt.Sprintf("Future work: coarsening LULESH's barrier points (%d threads, x86_64)", threads),
		Header: []string{"Fusion factor", "Barrier points", "BPs selected",
			"Err cyc (%)", "Err ins (%)", "Err L1D (%)", "Err L2D (%)", "Instr selected (%)"},
		Notes: []string{
			"fusing consecutive regions amortises counter-read overhead and noise floors,",
			"recovering accuracy at the cost of coarser simulation units",
		},
	}
	a, err := apps.ByName("LULESH")
	if err != nil {
		return err
	}
	for _, factor := range []int{1, 8, 40} {
		build := core.CoarsenBuilder(a.Build, factor)
		sets, err := r.Discover("LULESH", build, core.DiscoveryConfig{
			Threads: threads, Runs: r.cfg.Runs, Seed: r.cfg.Seed,
		})
		if err != nil {
			return err
		}
		col, err := r.Collect("LULESH", build, core.CollectConfig{
			Variant: isa.Variant{ISA: isa.X8664()},
			Threads: threads, Reps: r.cfg.Reps, Seed: r.cfg.Seed,
		})
		if err != nil {
			return err
		}
		best, bestSet, err := bestValidation(sets, col)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%dx", factor),
			fmt.Sprint(bestSet.TotalPoints),
			fmt.Sprint(len(bestSet.Selected)),
			report.Pct(best.AvgAbsErrPct[machine.Cycles]),
			report.Pct(best.AvgAbsErrPct[machine.Instructions]),
			report.Pct(best.AvgAbsErrPct[machine.L1DMisses]),
			report.Pct(best.AvgAbsErrPct[machine.L2DMisses]),
			report.Pct(bestSet.InstructionsSelectedPct()))
	}
	t.Render(w)
	return nil
}

// FutureWorkMultiplex implements the Section VIII proposal of "validating
// the representative sections against a more comprehensive set of
// performance counters": requesting more events than the PMU has slots
// forces PAPI-style multiplexing, whose extrapolation variance propagates
// into the barrier point estimates.
func FutureWorkMultiplex(r *Runner, w io.Writer) error {
	threads := r.cfg.maxThreads()
	t := report.Table{
		Title: fmt.Sprintf("Future work: counter multiplexing cost (HPCG, %d threads, x86_64)", threads),
		Header: []string{"Event groups", "Err cyc (%)", "Err ins (%)", "Err L1D (%)", "Err L2D (%)",
			"Max stddev (%)"},
		Notes: []string{
			"1 group = the paper's four events fit the PMU directly;",
			"more groups time-slice the PMU and inflate run-to-run variance",
		},
	}
	a, err := apps.ByName("HPCG")
	if err != nil {
		return err
	}
	sets, err := r.Discover("HPCG", a.Build, core.DiscoveryConfig{
		Threads: threads, Runs: r.cfg.Runs, Seed: r.cfg.Seed,
	})
	if err != nil {
		return err
	}
	for _, groups := range []int{1, 2, 4} {
		col, err := r.Collect("HPCG", a.Build, core.CollectConfig{
			Variant: isa.Variant{ISA: isa.X8664()},
			Threads: threads, Reps: r.cfg.Reps, Seed: r.cfg.Seed,
			MultiplexGroups: groups,
		})
		if err != nil {
			return err
		}
		best, _, err := bestValidation(sets, col)
		if err != nil {
			return err
		}
		maxSD := 0.0
		for _, sd := range best.MaxStdDevPct {
			if sd > maxSD {
				maxSD = sd
			}
		}
		t.AddRow(fmt.Sprint(groups),
			report.Pct(best.AvgAbsErrPct[machine.Cycles]),
			report.Pct(best.AvgAbsErrPct[machine.Instructions]),
			report.Pct(best.AvgAbsErrPct[machine.L1DMisses]),
			report.Pct(best.AvgAbsErrPct[machine.L2DMisses]),
			report.Pct(maxSD))
	}
	t.Render(w)
	return nil
}

// FutureWorkRefine implements the Section V-B suggestion for the
// embarrassingly parallel applications: "identifying ways of reducing the
// size of the barrier points could help". RSBench's single parallel region
// is split into intervals, restoring a simulation-time gain while keeping
// the estimates accurate.
func FutureWorkRefine(r *Runner, w io.Writer) error {
	threads := r.cfg.maxThreads()
	t := report.Table{
		Title: fmt.Sprintf("Future work: splitting RSBench's single region into intervals (%d threads)", threads),
		Header: []string{"Intervals", "BPs selected", "Instr selected (%)", "Speedup",
			"Err cyc x86 (%)", "Err cyc ARM (%)"},
		Notes: []string{
			"with one barrier point the methodology is trivially exact but gains nothing;",
			"interval splitting restores the gain the paper's Section V-B asks for",
		},
	}
	a, err := apps.ByName("RSBench")
	if err != nil {
		return err
	}
	for _, parts := range []int{1, 8, 64} {
		build := core.RefineBuilder(a.Build, parts)
		sets, err := r.Discover("RSBench", build, core.DiscoveryConfig{
			Threads: threads, Runs: r.cfg.Runs, Seed: r.cfg.Seed,
		})
		if err != nil {
			return err
		}
		type scored struct {
			set *core.BarrierPointSet
			x86 *core.Validation
			arm *core.Validation
		}
		var best scored
		x86Col, err := r.Collect("RSBench", build, core.CollectConfig{
			Variant: isa.Variant{ISA: isa.X8664()},
			Threads: threads, Reps: r.cfg.Reps, Seed: r.cfg.Seed,
		})
		if err != nil {
			return err
		}
		armCol, err := r.Collect("RSBench", build, core.CollectConfig{
			Variant: isa.Variant{ISA: isa.ARMv8()},
			Threads: threads, Reps: r.cfg.Reps, Seed: r.cfg.Seed,
		})
		if err != nil {
			return err
		}
		for i := range sets {
			x86V, err := core.Validate(&sets[i], x86Col)
			if err != nil {
				return err
			}
			armV, err := core.Validate(&sets[i], armCol)
			if err != nil {
				return err
			}
			if best.set == nil || x86V.MeanErrPct()+armV.MeanErrPct() <
				best.x86.MeanErrPct()+best.arm.MeanErrPct() {
				best = scored{&sets[i], x86V, armV}
			}
		}
		t.AddRow(fmt.Sprint(parts),
			fmt.Sprint(len(best.set.Selected)),
			report.Pct(best.set.InstructionsSelectedPct()),
			fmt.Sprintf("%.2fx", best.set.Speedup()),
			report.Pct(best.x86.AvgAbsErrPct[machine.Cycles]),
			report.Pct(best.arm.AvgAbsErrPct[machine.Cycles]))
	}
	t.Render(w)
	return nil
}

// FutureWorkISADiff quantifies the cross-architectural ISA differences the
// paper's final future-work item asks about: per-application ratios of
// dynamic instructions and cycles between the two platforms (Blem et al.'s
// observation is that instruction counts barely differ while cycles track
// the micro-architecture).
func FutureWorkISADiff(r *Runner, w io.Writer) error {
	threads := r.cfg.maxThreads()
	t := report.Table{
		Title: fmt.Sprintf("Future work: cross-ISA differences (ARMv8 / x86_64 ratios, %d threads)", threads),
		Header: []string{"Application", "Instr ratio (scalar)", "Instr ratio (vect)",
			"Cycle ratio (scalar)", "CPI ratio (scalar)"},
		Notes: []string{
			"instruction ratios stay near 1 (the ISA effect is small, as Blem et al. found);",
			"cycle ratios reflect the micro-architecture and clock-independent CPI gap",
		},
	}
	for _, a := range apps.Evaluated() {
		ratios := map[string]float64{}
		for _, vect := range []bool{false, true} {
			var vals [2]machine.Counters
			for i, arch := range []*isa.ISA{isa.X8664(), isa.ARMv8()} {
				col, err := r.Collect(a.Name, a.Build, core.CollectConfig{
					Variant: isa.Variant{ISA: arch, Vectorised: vect},
					Threads: threads, Reps: 3, Seed: r.cfg.Seed,
				})
				if err != nil {
					return err
				}
				for _, c := range col.Full {
					vals[i] = vals[i].Add(c)
				}
			}
			key := "scalar"
			if vect {
				key = "vect"
			}
			ratios["instr-"+key] = vals[1][machine.Instructions] / vals[0][machine.Instructions]
			ratios["cyc-"+key] = vals[1][machine.Cycles] / vals[0][machine.Cycles]
		}
		cpiRatio := ratios["cyc-scalar"] / ratios["instr-scalar"]
		t.AddRow(a.Name,
			fmt.Sprintf("%.3f", ratios["instr-scalar"]),
			fmt.Sprintf("%.3f", ratios["instr-vect"]),
			fmt.Sprintf("%.3f", ratios["cyc-scalar"]),
			fmt.Sprintf("%.3f", cpiRatio))
	}
	t.Render(w)
	return nil
}
