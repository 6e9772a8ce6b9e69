package experiments

import (
	"fmt"
	"io"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/report"
)

// Table1 reproduces Table I: the application catalogue with inputs.
func Table1(*Runner) func(io.Writer) error {
	return func(w io.Writer) error {
		t := report.Table{
			Title:  "Table I: Applications deployed and their descriptions",
			Header: []string{"Application", "Description", "Input"},
		}
		for _, a := range apps.All() {
			t.AddRow(a.Name, a.Description, a.Input)
		}
		t.Render(w)
		return nil
	}
}

// Table2 reproduces Table II: the two platforms' micro-architectural
// parameters.
func Table2(*Runner) func(io.Writer) error {
	return func(w io.Writer) error {
		t := report.Table{
			Title:  "Table II: Micro-architectural parameters of the Intel and ARM systems",
			Header: []string{"Platform", "Parameter", "Value"},
		}
		for _, m := range []*machine.Machine{machine.IntelI7(), machine.APMXGene()} {
			t.AddRow(m.ISA.Name, "Machine", m.Name)
			t.AddRow("", "Clock", fmt.Sprintf("%.1f GHz", m.CPU.FreqGHz))
			t.AddRow("", "Topology", fmt.Sprintf("%d cores x %d threads", m.PhysicalCores, m.ThreadsPerCore))
			t.AddRow("", "L1D per core", fmt.Sprintf("%d KB, %d-way", m.L1Bytes/1024, m.L1Ways))
			l2scope := "per core"
			if m.L2Scope > 1 {
				l2scope = fmt.Sprintf("per %d-core cluster", m.L2Scope)
			}
			t.AddRow("", "L2", fmt.Sprintf("%d KB, %d-way, %s", m.L2Bytes/1024, m.L2Ways, l2scope))
			t.AddRow("", "Shared L3", fmt.Sprintf("%d MB, %d-way", m.L3Bytes/(1024*1024), m.L3Ways))
			t.AddRow("", "Vector unit", fmt.Sprintf("%d-bit (%d doubles)", m.ISA.VectorBits, m.ISA.VectorLanes64()))
		}
		t.Render(w)
		return nil
	}
}

// Table3 reproduces Table III: total barrier points and the min/max number
// selected per application, across all thread counts, vectorisation
// settings, and discovery runs.
func Table3(r *Runner) func(io.Writer) error {
	names := evaluatedApps()
	grids := make([][]gridStudy, len(names))
	for i, name := range names {
		grids[i] = r.studyGrid([]string{name}, r.cfg.Threads)
	}
	return func(w io.Writer) error {
		t := report.Table{
			Title:  "Table III: Total number of barrier points, and min/max selected, per application",
			Header: []string{"Application", "Total", "Min", "Max"},
			Notes: []string{
				"across all thread counts, vectorisation settings and barrier point discovery runs",
			},
		}
		for i, name := range names {
			min, max := 0, 0
			total := 0
			first := true
			for _, s := range grids[i] {
				res := s.Get()
				lo, hi := res.MinMaxSelected()
				if first || lo < min {
					min = lo
				}
				if hi > max {
					max = hi
				}
				if res.TotalBPs > total {
					total = res.TotalBPs
				}
				first = false
			}
			t.AddRow(name, fmt.Sprint(total), fmt.Sprint(min), fmt.Sprint(max))
		}
		t.Render(w)
		return nil
	}
}

// table4Threads is the one configuration Table IV reports.
const table4Threads = 8

// Table4 reproduces Table IV: barrier points selected, cycle and
// instruction estimation error, instructions selected and speed-up for the
// 8-thread configurations, for the x86_64->x86_64 and x86_64->ARMv8
// predictions, scalar and vectorised.
func Table4(r *Runner) func(io.Writer) error {
	grid := r.studyGrid(evaluatedApps(), []int{table4Threads})
	return func(w io.Writer) error {
		t := report.Table{
			Title: "Table IV: Selection, estimation error and simulation speed-up potential (8 threads)",
			Header: []string{"Workload", "Configuration", "BPs Selected",
				"Err Cyc x86/ARM (%)", "Err Ins x86/ARM (%)",
				"Largest BP (%)", "Total (%)", "Speedup"},
		}
		for _, s := range grid {
			best := s.Get().BestEval()
			cfgName := "x86_64 / ARMv8"
			if s.Vectorised {
				cfgName = "x86_64-vect / ARMv8-vect"
			}
			armCyc, armIns := "n/a", "n/a"
			if best.ARM != nil {
				armCyc = report.Pct(best.ARM.AvgAbsErrPct[machine.Cycles])
				armIns = report.Pct(best.ARM.AvgAbsErrPct[machine.Instructions])
			}
			set := &best.Set
			t.AddRow(s.App, cfgName,
				fmt.Sprintf("%d / %d (%.2f%%)", len(set.Selected), set.TotalPoints,
					100*float64(len(set.Selected))/float64(set.TotalPoints)),
				report.Pct(best.X86.AvgAbsErrPct[machine.Cycles])+" / "+armCyc,
				report.Pct(best.X86.AvgAbsErrPct[machine.Instructions])+" / "+armIns,
				report.Pct(set.LargestBPPct()),
				report.Pct(set.InstructionsSelectedPct()),
				fmt.Sprintf("%.2fx", set.Speedup()),
			)
		}
		t.Notes = []string{
			"Largest BP bounds simulation time when barrier points run in parallel;",
			"Speedup = 100 / (total % of instructions selected).",
		}
		t.Render(w)
		return nil
	}
}
