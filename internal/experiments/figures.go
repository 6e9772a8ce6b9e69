package experiments

import (
	"fmt"
	"io"

	"barrierpoint/internal/core"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/report"
)

// fig1Study is Figure 1's one configuration, whatever thread counts the
// runner evaluates.
var fig1Study = StudySpec{App: "MCB", Threads: 1}

// Fig1 reproduces Figure 1: MCB's per-barrier-point CPI and L2 data MPKI
// (relative to the first barrier point) on the x86_64 platform in the
// 1-thread, non-vectorised configuration, together with two discovered
// barrier point sets and their resulting L2D estimation errors.
func Fig1(r *Runner, w io.Writer) error {
	res, err := r.Study(fig1Study.App, fig1Study.Threads, fig1Study.Vectorised)
	if err != nil {
		return err
	}
	col := res.X86Col

	n := col.NumBarrierPoints()
	cpi := make([]float64, n)
	mpki := make([]float64, n)
	for i := 0; i < n; i++ {
		var c machine.Counters
		for t := 0; t < col.Threads; t++ {
			c = c.Add(col.PerBP[i][t])
		}
		cpi[i] = c[machine.Cycles] / c[machine.Instructions]
		mpki[i] = c[machine.L2DMisses] / c[machine.Instructions] * 1000
	}
	labels := make([]string, n)
	relCPI := make([]float64, n)
	relMPKI := make([]float64, n)
	for i := 0; i < n; i++ {
		labels[i] = fmt.Sprintf("BP_%d", i+1)
		relCPI[i] = cpi[i] / cpi[0]
		relMPKI[i] = mpki[i] / mpki[0]
	}

	fig := report.Figure{
		Title: "Figure 1: Relative CPI and L2D MPKI (w.r.t. BP_1) across the execution of MCB (x86_64, 1 thread, non-vectorised)",
		Series: []report.Series{
			{Name: "CPI_rel", Labels: labels, Values: relCPI},
			{Name: "L2D_MPKI_rel", Labels: labels, Values: relMPKI},
		},
	}

	// Show two barrier point sets and their L2D estimation error, as the
	// paper contrasts Set 1 (<1% error) with Set 2 (~8%).
	best := res.BestEval()
	worstIdx := res.Best
	worstErr := -1.0
	for i := range res.Evals {
		if e := res.Evals[i].X86.AvgAbsErrPct[machine.L2DMisses]; e > worstErr {
			worstErr = e
			worstIdx = i
		}
	}
	describe := func(name string, ev *core.SetEvaluation) string {
		sel := ""
		for i, s := range ev.Set.Selected {
			if i > 0 {
				sel += ","
			}
			sel += fmt.Sprintf("BP_%d", s.Index+1)
		}
		return fmt.Sprintf("%s: {%s}  L2D error %.2f%% (x86_64)", name, sel,
			ev.X86.AvgAbsErrPct[machine.L2DMisses])
	}
	fig.Notes = append(fig.Notes,
		describe("BP Set 1 (lowest error)", best),
		describe("BP Set 2 (highest error)", &res.Evals[worstIdx]),
		"the L2D MPKI rises as MCB's particle footprint grows, so set choice matters",
	)
	fig.Render(w)
	return nil
}

// fig2Apps lists the subfigures of Figure 2 in the paper's order.
var fig2Apps = []string{"AMGMk", "graph500", "HPCG", "MCB", "miniFE", "CoMD", "LULESH"}

// Fig2 reproduces Figure 2: the average absolute estimation error (and
// maximum standard deviation) of cycles, instructions, L1D misses and L2D
// misses, per thread count, for the four prediction targets, using the
// barrier point set with the lowest error.
func Fig2(r *Runner, w io.Writer) error {
	for _, app := range fig2Apps {
		t := report.Table{
			Title: fmt.Sprintf("Figure 2: average absolute estimation error (%%) — %s", app),
			Header: []string{"Threads", "Prediction",
				"Cycles", "Instructions", "L1D Misses", "L2D Misses", "Max StdDev"},
		}
		for _, sp := range studyGrid([]string{app}, r.cfg.Threads) {
			res, err := r.Study(sp.App, sp.Threads, sp.Vectorised)
			if err != nil {
				return err
			}
			best := res.BestEval()
			type target struct {
				name string
				v    *core.Validation
			}
			targets := []target{
				{"x86_64", best.X86},
				{"ARMv8", best.ARM},
			}
			for _, tg := range targets {
				name := tg.name
				if sp.Vectorised {
					name += "-vect"
				}
				if tg.v == nil {
					t.AddRow(fmt.Sprint(sp.Threads), name, "n/a", "n/a", "n/a", "n/a", "n/a")
					continue
				}
				maxSD := 0.0
				for _, sd := range tg.v.MaxStdDevPct {
					if sd > maxSD {
						maxSD = sd
					}
				}
				t.AddRow(fmt.Sprint(sp.Threads), name,
					report.Pct(tg.v.AvgAbsErrPct[machine.Cycles]),
					report.Pct(tg.v.AvgAbsErrPct[machine.Instructions]),
					report.Pct(tg.v.AvgAbsErrPct[machine.L1DMisses]),
					report.Pct(tg.v.AvgAbsErrPct[machine.L2DMisses]),
					report.Pct(maxSD),
				)
			}
		}
		t.Render(w)
	}
	return nil
}
