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

// ablationApp is the workload the ablations probe: HPCG has both strong
// phase structure (BBV signal) and distinct reuse behaviour per phase (LDV
// signal), so it separates the signature components well.
const ablationApp = "HPCG"

// ablationValidate discovers with the given configuration and returns the
// best set's validation against the x86_64 collection.
func ablationValidate(r *Runner, disc core.DiscoveryConfig) (*core.Validation, *core.BarrierPointSet, error) {
	a, err := apps.ByName(ablationApp)
	if err != nil {
		return nil, nil, err
	}
	sets, err := r.Discover(ablationApp, a.Build, disc)
	if err != nil {
		return nil, nil, err
	}
	col, err := r.Collect(ablationApp, a.Build, core.CollectConfig{
		Variant: isa.Variant{ISA: isa.X8664(), Vectorised: disc.Vectorised},
		Threads: disc.Threads, Reps: r.cfg.Reps, Seed: r.cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	return bestValidation(sets, col)
}

// bestValidation validates every discovered set against col and returns
// the set with the lowest mean error (the first on a tie) with its
// validation.
func bestValidation(sets []core.BarrierPointSet, col *core.Collection) (*core.Validation, *core.BarrierPointSet, error) {
	var best *core.Validation
	var bestSet *core.BarrierPointSet
	for i := range sets {
		v, err := core.Validate(&sets[i], col)
		if err != nil {
			return nil, nil, err
		}
		if best == nil || v.MeanErrPct() < best.MeanErrPct() {
			best, bestSet = v, &sets[i]
		}
	}
	return best, bestSet, nil
}

// AblationSignature compares the paper's combined BBV+LDV signatures
// against BBV-only and LDV-only selection.
func AblationSignature(r *Runner, w io.Writer) error {
	threads := r.cfg.maxThreads()
	t := report.Table{
		Title:  fmt.Sprintf("Ablation: signature components (%s, %d threads)", ablationApp, threads),
		Header: []string{"Signature", "BPs", "Err cyc (%)", "Err ins (%)", "Err L1D (%)", "Err L2D (%)"},
	}
	for _, cfg := range []struct {
		name     string
		bbv, ldv bool
	}{
		{"BBV+LDV (paper)", true, true},
		{"BBV only", true, false},
		{"LDV only", false, true},
	} {
		disc := core.DiscoveryConfig{
			Threads: threads, Runs: r.cfg.Runs, Seed: r.cfg.Seed,
			DisableBBV: !cfg.bbv, DisableLDV: !cfg.ldv,
		}
		v, set, err := ablationValidate(r, disc)
		if err != nil {
			return err
		}
		t.AddRow(cfg.name, fmt.Sprint(len(set.Selected)),
			report.Pct(v.AvgAbsErrPct[machine.Cycles]),
			report.Pct(v.AvgAbsErrPct[machine.Instructions]),
			report.Pct(v.AvgAbsErrPct[machine.L1DMisses]),
			report.Pct(v.AvgAbsErrPct[machine.L2DMisses]))
	}
	t.Render(w)
	return nil
}

// AblationDropInsignificant reproduces the paper's observation that
// dropping barrier points which contribute little to total execution (as
// the original BarrierPoint methodology does) hurts the cache-miss
// estimates, which is why this work keeps all selected points.
func AblationDropInsignificant(r *Runner, w io.Writer) error {
	threads := r.cfg.maxThreads()
	res, err := r.Study(ablationApp, threads, false)
	if err != nil {
		return err
	}
	best := res.BestEval()
	full := best.X86

	// Drop selected points whose cluster covers <2% of execution, scaling
	// the survivors' multipliers to preserve total instruction weight.
	set := best.Set
	var kept []core.SelectedPoint
	var keptWeight, totalWeight float64
	for _, s := range set.Selected {
		w := s.Multiplier * s.Instructions
		totalWeight += w
		if w/set.TotalInstructions >= 0.02 {
			kept = append(kept, s)
			keptWeight += w
		}
	}
	if len(kept) == 0 || keptWeight == 0 {
		fmt.Fprintln(w, "ablation-drop: nothing to drop at this configuration")
		return nil
	}
	scale := totalWeight / keptWeight
	reduced := set
	reduced.Selected = make([]core.SelectedPoint, len(kept))
	for i, s := range kept {
		s.Multiplier *= scale
		reduced.Selected[i] = s
	}
	rv, err := core.Validate(&reduced, res.X86Col)
	if err != nil {
		return err
	}

	t := report.Table{
		Title:  fmt.Sprintf("Ablation: dropping insignificant barrier points (%s, %d threads, x86_64)", ablationApp, threads),
		Header: []string{"Policy", "BPs", "Err cyc (%)", "Err ins (%)", "Err L1D (%)", "Err L2D (%)"},
		Notes:  []string{"dropping hurts the cache estimates; the paper therefore keeps all selected points"},
	}
	row := func(name string, n int, v *core.Validation) {
		t.AddRow(name, fmt.Sprint(n),
			report.Pct(v.AvgAbsErrPct[machine.Cycles]),
			report.Pct(v.AvgAbsErrPct[machine.Instructions]),
			report.Pct(v.AvgAbsErrPct[machine.L1DMisses]),
			report.Pct(v.AvgAbsErrPct[machine.L2DMisses]))
	}
	row("keep all (paper)", len(set.Selected), full)
	row("drop <2% weight", len(reduced.Selected), rv)
	t.Render(w)
	return nil
}

// AblationDiscoveryRuns quantifies the benefit of exploring multiple
// barrier point sets (Section VI-B): the best of N runs versus a single
// run.
func AblationDiscoveryRuns(r *Runner, w io.Writer) error {
	threads := r.cfg.maxThreads()
	t := report.Table{
		Title:  fmt.Sprintf("Ablation: number of discovery runs (%s, %d threads, x86_64)", ablationApp, threads),
		Header: []string{"Runs", "Best-set mean err (%)", "BPs"},
	}
	for _, runs := range []int{1, 3, r.cfg.Runs} {
		disc := core.DiscoveryConfig{Threads: threads, Runs: runs, Seed: r.cfg.Seed}
		v, set, err := ablationValidate(r, disc)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprint(runs), report.Pct(v.MeanErrPct()), fmt.Sprint(len(set.Selected)))
	}
	t.Render(w)
	return nil
}

// AblationProjectionDim sweeps the random-projection dimensionality of the
// signature vectors around SimPoint's default of 15.
func AblationProjectionDim(r *Runner, w io.Writer) error {
	threads := r.cfg.maxThreads()
	t := report.Table{
		Title:  fmt.Sprintf("Ablation: signature projection dimension (%s, %d threads, x86_64)", ablationApp, threads),
		Header: []string{"Dim", "Best-set mean err (%)", "BPs"},
	}
	for _, dim := range []int{4, 15, 40} {
		disc := core.DiscoveryConfig{Threads: threads, Runs: r.cfg.Runs, Seed: r.cfg.Seed, SigDim: dim}
		v, set, err := ablationValidate(r, disc)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprint(dim), report.Pct(v.MeanErrPct()), fmt.Sprint(len(set.Selected)))
	}
	t.Render(w)
	return nil
}
