package experiments

import (
	"bytes"
	"testing"
)

// TestBatchStudiesMatchesSerial: the studies PlanStudies runs as one
// batch-compiled sweep are byte-identical to serial Study calls on a fresh
// runner, and the sweep pre-warms the planning runner's cache, so later
// Study calls there are cache hits that return one stored result.
func TestBatchStudiesMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	specs := []StudySpec{
		{App: "MCB", Threads: 2, Vectorised: false},
		{App: "MCB", Threads: 2, Vectorised: true},
		{App: "LULESH", Threads: 2, Vectorised: false},
	}
	declared := Experiment{Name: "declared", Studies: func(Config) []StudySpec { return specs }}

	batch := tinyRunner()
	stats, err := batch.PlanStudies([]Experiment{declared})
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
	for _, sp := range specs {
		misses := batch.CacheStats().Misses
		got, err := batch.Study(sp.App, sp.Threads, sp.Vectorised)
		if err != nil {
			t.Fatal(err)
		}
		if n := batch.CacheStats().Misses - misses; n != 0 {
			t.Errorf("%+v: Study after the plan missed the pre-warmed cache %d times", sp, n)
		}
		again, err := batch.Study(sp.App, sp.Threads, sp.Vectorised)
		if err != nil {
			t.Fatal(err)
		}
		if again != got {
			t.Errorf("%+v: repeated Study returned a different object", sp)
		}

		want, err := serial.Study(sp.App, sp.Threads, sp.Vectorised)
		if err != nil {
			t.Fatal(err)
		}
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

func TestPlanStudiesUnknownApp(t *testing.T) {
	bad := Experiment{Name: "bad", Studies: func(Config) []StudySpec {
		return []StudySpec{{App: "nope", Threads: 2}}
	}}
	if _, err := tinyRunner().PlanStudies([]Experiment{bad}); err == nil {
		t.Error("unknown app in a declared study should error")
	}
}
