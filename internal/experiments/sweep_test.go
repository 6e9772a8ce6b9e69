package experiments

import (
	"bytes"
	"io"
	"testing"

	"barrierpoint/internal/core"
)

// TestBatchStudiesMatchesSerial: studies declared together run as one
// plan and are byte-identical to the same studies executed one at a time
// on a fresh runner, and the plan pre-warms the planning runner's cache,
// so re-declaring them there runs nothing and returns one stored result.
func TestBatchStudiesMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	specs := []StudySpec{
		{App: "MCB", Threads: 2, Vectorised: false},
		{App: "MCB", Threads: 2, Vectorised: true},
		{App: "LULESH", Threads: 2, Vectorised: false},
	}
	batch := tinyRunner()
	var handles []Handle[*core.StudyResult]
	for _, sp := range specs {
		handles = append(handles, batch.Study(sp.App, sp.Threads, sp.Vectorised))
	}
	stats, err := batch.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Studies != len(specs) || stats.PlannedUnits == 0 {
		t.Errorf("implausible plan stats %+v", stats)
	}
	if stats.NaiveUnits != stats.PlannedUnits+stats.DedupedUnits+stats.SubsumedUnits {
		t.Errorf("plan stats do not add up: %+v", stats)
	}

	serial := tinyRunner()
	for i, sp := range specs {
		got := handles[i].Get()
		misses := batch.CacheStats().Misses
		if again := study(t, batch, sp.App, sp.Threads, sp.Vectorised); again != got {
			t.Errorf("%+v: re-declared Study returned a different object", sp)
		}
		if n := batch.CacheStats().Misses - misses; n != 0 {
			t.Errorf("%+v: Study after the plan missed the pre-warmed cache %d times", sp, n)
		}

		want := study(t, serial, sp.App, sp.Threads, sp.Vectorised)
		var gotJSON, wantJSON bytes.Buffer
		if err := got.WriteJSON(&gotJSON); err != nil {
			t.Fatal(err)
		}
		if err := want.WriteJSON(&wantJSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
			t.Errorf("%+v: planned result differs from serial Study", sp)
		}
	}
}

// TestPlanStudiesUnknownApp: an experiment that declares a study of an
// unknown application fails the plan that runs its declarations.
func TestPlanStudiesUnknownApp(t *testing.T) {
	bad := Experiment{Name: "bad", Run: func(r *Runner) func(io.Writer) error {
		r.Study("nope", 2, false)
		return func(io.Writer) error { return nil }
	}}
	r := tinyRunner()
	bad.Run(r)
	if _, err := r.Execute(); err == nil {
		t.Error("unknown app in a declared study should error")
	}
}
