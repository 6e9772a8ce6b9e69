package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
)

// tinyRunner keeps experiment tests fast: one thread count, few runs.
func tinyRunner() *Runner {
	return NewRunner(Config{Seed: 7, Runs: 2, Reps: 5, Threads: []int{2}})
}

// study declares one study on r, executes it, and returns its result.
func study(t *testing.T, r *Runner, app string, threads int, vectorised bool) *core.StudyResult {
	t.Helper()
	h := r.Study(app, threads, vectorised)
	if _, err := r.Execute(); err != nil {
		t.Fatal(err)
	}
	return h.Get()
}

func TestAllExperimentsRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, e := range All() {
		if e.Name == "" || e.Description == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if names[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		names[e.Name] = true
	}
	for _, want := range []string{"table1", "table2", "table3", "table4",
		"fig1", "fig2", "limits", "overhead", "headline"} {
		if !names[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
}

func TestByNameLookup(t *testing.T) {
	if _, err := ByName("table4"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("table99"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestTable1Output(t *testing.T) {
	renderGolden(t, tinyRunner(), "table1")
}

func TestTable2Output(t *testing.T) {
	renderGolden(t, tinyRunner(), "table2")
}

func TestRunnerCachesStudies(t *testing.T) {
	r := tinyRunner()
	a := study(t, r, "MCB", 2, false)
	misses := r.CacheStats().Misses
	if b := study(t, r, "MCB", 2, false); a != b {
		t.Error("repeated Study calls should return the cached result")
	}
	if n := r.CacheStats().Misses - misses; n != 0 {
		t.Errorf("repeating a study missed the cache %d times", n)
	}
}

// TestRunnerUnknownApp: a study, discovery or collection of an unknown
// application fails the Execute that runs it.
func TestRunnerUnknownApp(t *testing.T) {
	for name, declare := range map[string]func(r *Runner){
		"study":     func(r *Runner) { r.Study("nope", 2, false) },
		"discovery": func(r *Runner) { r.Discover("nope", appBuild("nope"), core.DiscoveryConfig{Threads: 2}) },
		"collection": func(r *Runner) {
			r.Collect("nope", appBuild("nope"), core.CollectConfig{Variant: isa.Variant{ISA: isa.X8664()}, Threads: 2})
		},
	} {
		r := tinyRunner()
		declare(r)
		if _, err := r.Execute(); err == nil || !strings.Contains(err.Error(), `unknown application "nope"`) {
			t.Errorf("%s of an unknown app: Execute = %v, want the lookup error", name, err)
		}
	}
}

func TestFig1Output(t *testing.T) {
	renderGolden(t, tinyRunner(), "fig1")
}

func TestFig1MPKIRises(t *testing.T) {
	col := study(t, tinyRunner(), "MCB", 1, false).X86Col
	first := col.PerBP[0][0][machine.L2DMisses] / col.PerBP[0][0][machine.Instructions]
	last := col.PerBP[9][0][machine.L2DMisses] / col.PerBP[9][0][machine.Instructions]
	if last < 4*first {
		t.Errorf("MCB L2D MPKI should rise strongly: first %g, last %g", first, last)
	}
}

func TestHeadlineOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	renderGolden(t, NewRunner(Config{Seed: 7, Runs: 2, Reps: 10, Threads: []int{2}}), "headline")
}

// TestHeadlinePaperBands holds the Section VI headline to the paper's
// bands at its configuration (10 discovery runs, 20 reps, 8 threads).
// MCB's selected share is a known deviation, pinned at its exact value:
// its ten equal-sized regions fall into four footprint phases, so its
// best set selects 4 of 10 barrier points, 40% of its instructions, one
// step above the paper's 39% (see the README).
func TestHeadlinePaperBands(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-configuration sweep")
	}
	r := NewRunner(Default())
	numbers := HeadlineResults(r)
	if _, err := r.Execute(); err != nil {
		t.Fatal(err)
	}
	h := numbers()
	if h.Threads != 8 || len(h.Rows) != 12 {
		t.Fatalf("headline covers %d rows at %d threads, want 12 at 8", len(h.Rows), h.Threads)
	}
	if h.WorstCycErrPct >= 2.3 {
		t.Errorf("worst cycle error %.2f%%, paper: < 2.3%%", h.WorstCycErrPct)
	}
	if h.WorstInsErrPct >= 2.3 {
		t.Errorf("worst instruction error %.2f%%, paper: < 2.3%%", h.WorstInsErrPct)
	}
	if h.BestSpeedup > 178 || h.BestSpeedup < 150 {
		t.Errorf("best reduction %.2fx, paper: up to 178x (expected at least 150x)", h.BestSpeedup)
	}
	mcb := 0
	for _, row := range h.Rows {
		if row.App == "MCB" {
			mcb++
			if row.Selected != 4 || row.Total != 10 || fmt.Sprintf("%.3f", row.SelectedPct) != "40.000" {
				t.Errorf("MCB (vectorised=%v) selects %d of %d barrier points, %.3f%% of instructions; known deviation is 4 of 10, 40.000%%",
					row.Vectorised, row.Selected, row.Total, row.SelectedPct)
			}
			continue
		}
		// The paper quotes the band to one decimal.
		if pct := math.Round(row.SelectedPct*10) / 10; pct < 0.6 || pct > 39 {
			t.Errorf("%s (vectorised=%v) selects %.3f%% of instructions, paper: 0.6%% - 39%%",
				row.App, row.Vectorised, row.SelectedPct)
		}
	}
	if mcb != 2 {
		t.Errorf("headline has %d MCB rows, want scalar and vectorised", mcb)
	}
}

func TestLimitsOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	renderGolden(t, tinyRunner(), "limits")
}

func TestConfigDefaults(t *testing.T) {
	c := (Config{}).withDefaults()
	if c.Runs != 10 || c.Reps != 20 || len(c.Threads) != 4 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if Default().Runs != 10 || len(Quick().Threads) == 0 {
		t.Error("preset configs wrong")
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// The same seed must regenerate byte-identical output, even from a
	// fresh runner.
	render := func() string {
		var b strings.Builder
		r := NewRunner(Config{Seed: 7, Runs: 2, Reps: 5, Threads: []int{2}})
		fig1 := Fig1(r)
		if _, err := r.Execute(); err != nil {
			t.Fatal(err)
		}
		if err := fig1(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("Fig1 output differs across identical runs:\n%s\n---\n%s", a, b)
	}
}

// TestTable3And4QuickRun is the suite path for the study-reading
// experiments: the union of the studies the six declare runs as one
// plan, with each study one member however many experiments read it, and
// rendering them afterwards matches the goldens without a single cache
// miss.
func TestTable3And4QuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	r := NewRunner(Config{Seed: 7, Runs: 1, Reps: 5, Threads: []int{2}})
	stats := renderGolden(t, r, "table3", "table4", "fig1", "fig2", "headline", "ablation-drop")
	// 7 apps x {2, 8} threads x {scalar, vectorised}, plus fig1's MCB at
	// 1 thread; the other declarations fall inside that union.
	if stats.Studies != 29 || stats.NaiveUnits != stats.PlannedUnits+stats.DedupedUnits+stats.SubsumedUnits {
		t.Errorf("plan stats %+v, want 29 studies and units that add up", stats)
	}
}

func TestOverheadVariabilityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	renderGolden(t, NewRunner(Config{Seed: 7, Runs: 1, Reps: 5, Threads: []int{2}}), "overhead")
}
