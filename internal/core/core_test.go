package core

import (
	"errors"
	"reflect"
	"testing"

	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/simpoint"
	"barrierpoint/internal/trace"
)

// phasedBuilder returns a builder producing nPhases distinct region types
// repeated in a cycle, iters times each; region counts are architecture
// independent. Each region is large enough that instrumentation overhead
// stays small.
func phasedBuilder(nPhases, iters int) ProgramBuilder {
	return func(threads int, v isa.Variant) (*trace.Program, error) {
		p := trace.NewProgram("phased")
		data := p.AddData("grid", 1<<15)
		var blocks []*trace.Block
		for ph := 0; ph < nPhases; ph++ {
			var mix isa.OpMix
			mix[isa.IntOp] = 2 + float64(ph)
			mix[isa.FPAdd] = 1 + float64(ph%2)*2
			mix[isa.FPMul] = 1
			mix[isa.Load] = 2
			mix[isa.Store] = 1
			mix[isa.Branch] = 1
			pattern := trace.Sequential
			if ph%3 == 1 {
				pattern = trace.Random
			} else if ph%3 == 2 {
				pattern = trace.Strided
			}
			blocks = append(blocks, p.AddBlock(trace.Block{
				Name: "phase", Mix: mix, Vectorisable: ph%2 == 0,
				LinesPerIter: 0.05, Pattern: pattern, Data: data, StrideLines: 5,
			}))
		}
		for it := 0; it < iters; it++ {
			for ph := 0; ph < nPhases; ph++ {
				p.AddRegion("r", trace.BlockExec{Block: blocks[ph], Trips: 60000})
			}
		}
		p.Finalise()
		return p, nil
	}
}

// archDependentBuilder produces a different region count on ARMv8 — the
// HPGMG-FV convergence failure mode.
func archDependentBuilder() ProgramBuilder {
	return func(threads int, v isa.Variant) (*trace.Program, error) {
		iters := 10
		if v.ISA.Name == "ARMv8" {
			iters = 12
		}
		p := trace.NewProgram("archdep")
		data := p.AddData("d", 4096)
		var mix isa.OpMix
		mix[isa.IntOp] = 2
		mix[isa.FPAdd] = 2
		mix[isa.Load] = 1
		mix[isa.Branch] = 1
		b := p.AddBlock(trace.Block{Name: "b", Mix: mix, LinesPerIter: 0.1,
			Pattern: trace.Sequential, Data: data})
		for i := 0; i < iters; i++ {
			p.AddRegion("r", trace.BlockExec{Block: b, Trips: 50000})
		}
		p.Finalise()
		return p, nil
	}
}

// singleRegionBuilder models the embarrassingly parallel apps.
func singleRegionBuilder() ProgramBuilder {
	return func(threads int, v isa.Variant) (*trace.Program, error) {
		p := trace.NewProgram("single")
		data := p.AddData("d", 4096)
		var mix isa.OpMix
		mix[isa.IntOp] = 3
		mix[isa.Load] = 2
		mix[isa.Branch] = 1
		b := p.AddBlock(trace.Block{Name: "b", Mix: mix, LinesPerIter: 0.5,
			Pattern: trace.Random, Data: data})
		p.AddRegion("only", trace.BlockExec{Block: b, Trips: 200000})
		p.Finalise()
		return p, nil
	}
}

func TestDiscoverProducesSets(t *testing.T) {
	cfg := DefaultDiscovery(2, false, 42)
	cfg.Runs = 3
	sets, err := Discover(phasedBuilder(3, 10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 3 {
		t.Fatalf("sets = %d", len(sets))
	}
	for _, s := range sets {
		if s.TotalPoints != 30 {
			t.Errorf("run %d: total points %d, want 30", s.Run, s.TotalPoints)
		}
		if len(s.Selected) == 0 || len(s.Selected) > 20 {
			t.Errorf("run %d: %d selected", s.Run, len(s.Selected))
		}
		if s.TotalInstructions <= 0 {
			t.Errorf("run %d: no instruction weight", s.Run)
		}
	}
}

func TestDiscoverFindsPhaseStructure(t *testing.T) {
	// Three clearly distinct phases should cluster into roughly three
	// clusters, far fewer than the 30 regions.
	cfg := DefaultDiscovery(2, false, 7)
	cfg.Runs = 1
	sets, err := Discover(phasedBuilder(3, 10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(sets[0].Selected)
	if n < 2 || n > 8 {
		t.Errorf("selected %d representatives for 3 phases x 10 iterations", n)
	}
}

func TestMultipliersReconstructInstructionWeight(t *testing.T) {
	cfg := DefaultDiscovery(2, false, 13)
	cfg.Runs = 1
	sets, err := Discover(phasedBuilder(3, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := sets[0]
	var rebuilt float64
	for _, sel := range s.Selected {
		rebuilt += sel.Multiplier * sel.Instructions
	}
	if diff := (rebuilt - s.TotalInstructions) / s.TotalInstructions; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("multipliers rebuild %f of %f instructions", rebuilt, s.TotalInstructions)
	}
}

func TestSetAccountingHelpers(t *testing.T) {
	s := &BarrierPointSet{
		TotalInstructions: 1000,
		Selected: []SelectedPoint{
			{Index: 0, Multiplier: 5, Instructions: 40},
			{Index: 3, Multiplier: 2, Instructions: 10},
		},
	}
	if pct := s.InstructionsSelectedPct(); pct != 5 {
		t.Errorf("InstructionsSelectedPct = %f", pct)
	}
	if pct := s.LargestBPPct(); pct != 4 {
		t.Errorf("LargestBPPct = %f", pct)
	}
	if sp := s.Speedup(); sp != 20 {
		t.Errorf("Speedup = %f", sp)
	}
	empty := &BarrierPointSet{}
	if empty.InstructionsSelectedPct() != 0 || empty.Speedup() != 0 || empty.LargestBPPct() != 0 {
		t.Error("empty set accounting should be zero")
	}
}

func TestSelectedSortedByIndex(t *testing.T) {
	cfg := DefaultDiscovery(2, false, 5)
	cfg.Runs = 2
	sets, err := Discover(phasedBuilder(4, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sets {
		for i := 1; i < len(s.Selected); i++ {
			if s.Selected[i].Index < s.Selected[i-1].Index {
				t.Fatal("selected points not sorted by execution index")
			}
		}
	}
}

func TestCollectShapes(t *testing.T) {
	col, err := Collect(phasedBuilder(2, 5), CollectConfig{
		Variant: isa.Variant{ISA: isa.X8664()},
		Threads: 2, Reps: 5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if col.NumBarrierPoints() != 10 {
		t.Fatalf("barrier points = %d", col.NumBarrierPoints())
	}
	if len(col.Full) != 2 || len(col.PerBP[0]) != 2 {
		t.Fatal("per-thread shapes wrong")
	}
	for t2 := 0; t2 < 2; t2++ {
		if col.Full[t2][machine.Cycles] <= 0 {
			t.Error("full measurement should be positive")
		}
	}
}

func TestCollectMeasuredExceedsTrueDueToOverhead(t *testing.T) {
	col, err := Collect(phasedBuilder(2, 5), CollectConfig{
		Variant: isa.Variant{ISA: isa.X8664()},
		Threads: 2, Reps: 20, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Summed over many BPs, measured means should exceed true values
	// because per-BP instrumentation adds instructions.
	var measured, truth float64
	for i := range col.PerBP {
		for t2 := range col.PerBP[i] {
			measured += col.PerBP[i][t2][machine.Instructions]
			truth += col.TruePerBP[i][t2][machine.Instructions]
		}
	}
	if measured <= truth {
		t.Errorf("instrumented measurement %f should exceed true %f", measured, truth)
	}
}

func TestReconstructLowErrorSameArch(t *testing.T) {
	build := phasedBuilder(3, 10)
	cfg := DefaultDiscovery(2, false, 21)
	cfg.Runs = 2
	sets, err := Discover(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	col, err := Collect(build, CollectConfig{
		Variant: isa.Variant{ISA: isa.X8664()}, Threads: 2, Reps: 20, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Validate(&sets[0], col)
	if err != nil {
		t.Fatal(err)
	}
	if v.AvgAbsErrPct[machine.Cycles] > 5 {
		t.Errorf("cycle error %f%% too high for a regular workload", v.AvgAbsErrPct[machine.Cycles])
	}
	if v.AvgAbsErrPct[machine.Instructions] > 5 {
		t.Errorf("instruction error %f%% too high", v.AvgAbsErrPct[machine.Instructions])
	}
}

func TestReconstructCrossArch(t *testing.T) {
	build := phasedBuilder(3, 10)
	cfg := DefaultDiscovery(2, false, 31)
	cfg.Runs = 1
	sets, err := Discover(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	col, err := Collect(build, CollectConfig{
		Variant: isa.Variant{ISA: isa.ARMv8()}, Threads: 2, Reps: 20, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Validate(&sets[0], col)
	if err != nil {
		t.Fatal(err)
	}
	if v.AvgAbsErrPct[machine.Cycles] > 6 {
		t.Errorf("cross-arch cycle error %f%% too high", v.AvgAbsErrPct[machine.Cycles])
	}
}

func TestReconstructRegionCountMismatch(t *testing.T) {
	build := archDependentBuilder()
	cfg := DefaultDiscovery(1, false, 41)
	cfg.Runs = 1
	sets, err := Discover(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	col, err := Collect(build, CollectConfig{
		Variant: isa.Variant{ISA: isa.ARMv8()}, Threads: 1, Reps: 3, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reconstruct(&sets[0], col); !errors.Is(err, ErrRegionCountMismatch) {
		t.Errorf("want ErrRegionCountMismatch, got %v", err)
	}
}

func TestReconstructThreadMismatch(t *testing.T) {
	build := phasedBuilder(2, 5)
	cfg := DefaultDiscovery(2, false, 51)
	cfg.Runs = 1
	sets, err := Discover(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	col, err := Collect(build, CollectConfig{
		Variant: isa.Variant{ISA: isa.X8664()}, Threads: 4, Reps: 3, Seed: 51,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reconstruct(&sets[0], col); err == nil {
		t.Error("thread count mismatch should fail")
	}
}

// TestReconstructRejectsMalformedCollection: a collection whose counters
// do not cover its Threads (one decoded off the wire, say) is an error
// from Reconstruct and Validate, never an index panic.
func TestReconstructRejectsMalformedCollection(t *testing.T) {
	build := phasedBuilder(2, 5)
	cfg := DefaultDiscovery(2, false, 51)
	cfg.Runs = 1
	sets, err := Discover(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	good, err := Collect(build, CollectConfig{
		Variant: isa.Variant{ISA: isa.X8664()}, Threads: 2, Reps: 3, Seed: 51,
	})
	if err != nil {
		t.Fatal(err)
	}
	sel := sets[0].Selected[0].Index
	for _, tc := range []struct {
		name   string
		mangle func(c *Collection)
	}{
		{"zero threads", func(c *Collection) { c.Threads, c.Full, c.FullStd = 0, nil, nil }},
		{"short Full", func(c *Collection) { c.Full = c.Full[:1] }},
		{"nil FullStd", func(c *Collection) { c.FullStd = nil }},
		{"nil PerBPStd", func(c *Collection) { c.PerBPStd = nil }},
		{"short PerBP row", func(c *Collection) { c.PerBP[sel] = c.PerBP[sel][:1] }},
		{"short PerBPStd row", func(c *Collection) { c.PerBPStd[sel] = nil }},
	} {
		col := *good
		col.PerBP = append([][]machine.Counters(nil), good.PerBP...)
		col.PerBPStd = append([][]machine.Counters(nil), good.PerBPStd...)
		tc.mangle(&col)
		set := sets[0]
		set.Threads = col.Threads
		if _, err := Reconstruct(&set, &col); err == nil {
			t.Errorf("%s: Reconstruct accepted the collection", tc.name)
		}
		if _, err := Validate(&set, &col); err == nil {
			t.Errorf("%s: Validate accepted the collection", tc.name)
		}
	}
	if _, err := Validate(&sets[0], good); err != nil {
		t.Errorf("well-formed collection rejected: %v", err)
	}
}

// TestDiscoverJitteredRejectsBaselineWidth: a jittered run refuses a
// baseline whose projected rows are not the configuration's LDV width
// instead of copying them into a zero-filled half.
func TestDiscoverJitteredRejectsBaselineWidth(t *testing.T) {
	build := phasedBuilder(2, 5)
	cfg := DiscoveryConfig{Threads: 2, Runs: 2, Seed: 5}
	narrow := cfg
	narrow.SigDim = 8
	_, base, err := DiscoverBaseline(build, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DiscoverJittered(build, narrow, 1, base); err != nil {
		t.Fatalf("matching baseline rejected: %v", err)
	}
	if _, err := DiscoverJittered(build, cfg, 1, base); err == nil {
		t.Error("jittered run accepted 8-wide baseline rows under the default projection")
	}
	noLDV := cfg
	noLDV.DisableLDV = true
	if _, err := DiscoverJittered(build, noLDV, 1, base); err == nil {
		t.Error("LDV-less jittered run accepted a baseline with LDV rows")
	}
}

// TestDiscoveryPointsAreDiscoverys: the points and clustering
// configuration DiscoveryPoints hands out, clustered, select what
// discovery selects, for the canonical run and a jittered one, and the
// canonical run leaves the same LDV baseline.
func TestDiscoveryPointsAreDiscoverys(t *testing.T) {
	build := phasedBuilder(3, 8)
	cfg := DiscoveryConfig{Threads: 2, Runs: 2, Seed: 7}
	want0, wantBase, err := DiscoverBaseline(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want1, err := DiscoverJittered(build, cfg, 1, wantBase)
	if err != nil {
		t.Fatal(err)
	}
	var base *LDVBaseline
	for run, want := range []BarrierPointSet{want0, want1} {
		points, spCfg, newBase, err := DiscoveryPoints(build, cfg, run, base)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			if newBase == nil || newBase.Digest() != wantBase.Digest() {
				t.Fatal("run 0: DiscoveryPoints' LDV baseline differs from DiscoverBaseline's")
			}
			base = newBase
		}
		res, err := simpoint.Cluster(points, spCfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []SelectedPoint
		for c, rep := range res.Representatives {
			if rep >= 0 {
				got = append(got, SelectedPoint{Index: rep, Multiplier: res.Multipliers[c], Instructions: points[rep].Weight})
			}
		}
		sortSelected(got)
		if len(points) != want.TotalPoints || !reflect.DeepEqual(got, want.Selected) {
			t.Errorf("run %d: DiscoveryPoints clusters to %d points, %v; discovery to %d points, %v",
				run, len(points), got, want.TotalPoints, want.Selected)
		}
	}
}

func TestApplicabilitySingleRegion(t *testing.T) {
	cfg := DefaultDiscovery(2, false, 61)
	cfg.Runs = 1
	sets, err := Discover(singleRegionBuilder(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	app := CheckApplicability(&sets[0])
	if app.OK {
		t.Error("single-region workload should be flagged")
	}
	if app.Reason == "" {
		t.Error("reason should be populated")
	}
}

func TestApplicabilityMismatch(t *testing.T) {
	set := &BarrierPointSet{TotalPoints: 10}
	col := &Collection{Machine: machine.APMXGene(), PerBP: make([][]machine.Counters, 12)}
	app := CheckApplicability(set, col)
	if app.OK {
		t.Error("mismatched collection should be flagged")
	}
}

func TestApplicabilityOK(t *testing.T) {
	set := &BarrierPointSet{TotalPoints: 10}
	col := &Collection{Machine: machine.IntelI7(), PerBP: make([][]machine.Counters, 10)}
	if app := CheckApplicability(set, col); !app.OK {
		t.Errorf("should be applicable: %s", app.Reason)
	}
}

func TestRunStudyEndToEnd(t *testing.T) {
	res, err := RunStudy("phased", phasedBuilder(3, 8), StudyConfig{
		Threads: 2, Runs: 2, Reps: 5, Seed: 71,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBPs != 24 {
		t.Errorf("TotalBPs = %d", res.TotalBPs)
	}
	if len(res.Evals) != 2 {
		t.Fatalf("evals = %d", len(res.Evals))
	}
	best := res.BestEval()
	if best.X86 == nil || best.ARM == nil {
		t.Fatal("best eval missing validations")
	}
	if !res.Applicability.OK {
		t.Errorf("phased workload should be applicable: %s", res.Applicability.Reason)
	}
	min, max := res.MinMaxSelected()
	if min <= 0 || max < min {
		t.Errorf("MinMaxSelected = %d,%d", min, max)
	}
}

func TestRunStudyArchMismatchSurfacesInEval(t *testing.T) {
	res, err := RunStudy("archdep", archDependentBuilder(), StudyConfig{
		Threads: 1, Runs: 1, Reps: 3, Seed: 81,
	})
	if err != nil {
		t.Fatal(err)
	}
	best := res.BestEval()
	if best.ARM != nil {
		t.Error("ARM validation should be nil on region count mismatch")
	}
	if !errors.Is(best.ARMErr, ErrRegionCountMismatch) {
		t.Errorf("ARMErr = %v", best.ARMErr)
	}
	if res.Applicability.OK {
		t.Error("applicability should flag the mismatch")
	}
}

func TestValidationScalarSummaries(t *testing.T) {
	v := &Validation{}
	v.AvgAbsErrPct = [machine.NumMetrics]float64{1, 2, 3, 4}
	if v.WorstErrPct() != 4 {
		t.Errorf("WorstErrPct = %f", v.WorstErrPct())
	}
	if v.MeanErrPct() != 2.5 {
		t.Errorf("MeanErrPct = %f", v.MeanErrPct())
	}
}

func TestDiscoverValidation(t *testing.T) {
	if _, err := Discover(phasedBuilder(2, 2), DiscoveryConfig{Threads: 0, Runs: 1}); err == nil {
		t.Error("zero threads should fail")
	}
	if _, err := Discover(phasedBuilder(2, 2), DiscoveryConfig{Threads: 99, Runs: 1}); err == nil {
		t.Error("too many threads should fail")
	}
	if _, err := Discover(phasedBuilder(2, 2), DiscoveryConfig{Threads: 2, Runs: 1, DisableBBV: true, DisableLDV: true}); err == nil {
		t.Error("a signature with neither component should fail")
	}
}

func TestCollectValidation(t *testing.T) {
	if _, err := Collect(phasedBuilder(2, 2), CollectConfig{Threads: 2}); err == nil {
		t.Error("missing variant should fail")
	}
}

func TestDiscoverSignatureAblationFlags(t *testing.T) {
	build := phasedBuilder(3, 6)
	for _, cfg := range []DiscoveryConfig{
		{Threads: 2, Runs: 1, Seed: 5, DisableLDV: true},
		{Threads: 2, Runs: 1, Seed: 5, DisableBBV: true},
	} {
		sets, err := Discover(build, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(sets[0].Selected) == 0 {
			t.Error("ablated discovery should still select points")
		}
	}
}

func TestDiscoverMaxKCapsSelection(t *testing.T) {
	cfg := DiscoveryConfig{Threads: 2, Runs: 1, Seed: 5, MaxK: 2}
	sets, err := Discover(phasedBuilder(4, 8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sets[0].Selected); n > 2 {
		t.Errorf("MaxK=2 but %d points selected", n)
	}
}

func TestCollectOnOverriddenMachine(t *testing.T) {
	col, err := Collect(phasedBuilder(2, 4), CollectConfig{
		Variant: isa.Variant{ISA: isa.ARMv8()},
		Threads: 2, Reps: 2, Seed: 3,
		Machine: machine.ARMInOrder(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if col.Machine.Name != machine.ARMInOrder().Name {
		t.Error("machine override ignored")
	}
	// The in-order machine must burn more cycles than the X-Gene for the
	// same binary.
	xgene, err := Collect(phasedBuilder(2, 4), CollectConfig{
		Variant: isa.Variant{ISA: isa.ARMv8()},
		Threads: 2, Reps: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var inorderCyc, xgeneCyc float64
	for t2 := 0; t2 < 2; t2++ {
		inorderCyc += col.TrueFull[t2][machine.Cycles]
		xgeneCyc += xgene.TrueFull[t2][machine.Cycles]
	}
	if inorderCyc <= xgeneCyc {
		t.Errorf("in-order cycles %f should exceed X-Gene %f", inorderCyc, xgeneCyc)
	}
}

func TestCollectRejectsWrongMachineISA(t *testing.T) {
	_, err := Collect(phasedBuilder(2, 4), CollectConfig{
		Variant: isa.Variant{ISA: isa.X8664()},
		Threads: 2, Reps: 2, Seed: 3,
		Machine: machine.APMXGene(),
	})
	if err == nil {
		t.Error("x86_64 binary on an ARM machine must fail")
	}
}
