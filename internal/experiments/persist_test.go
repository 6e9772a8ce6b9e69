package experiments

import (
	"reflect"
	"testing"
)

func persistTestConfig() Config {
	return Config{Seed: 2017, Runs: 2, Reps: 5, Threads: []int{2}, Workers: 4}
}

// TestPersistentRunnerSharesStudiesAcrossInstances is the batch-runner
// acceptance test: a second runner on the same cache directory serves a
// previously computed study from disk with zero recomputation.
func TestPersistentRunnerSharesStudiesAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	cfg := persistTestConfig()

	r1, err := NewPersistentRunner(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := study(t, r1, "MCB", 2, false)
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := NewPersistentRunner(cfg, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	got := study(t, r2, "MCB", 2, false)
	st := r2.CacheStats()
	if st.Puts != 0 {
		t.Errorf("second runner recomputed %d units", st.Puts)
	}
	if st.DiskHits == 0 {
		t.Errorf("second runner never read the store: %+v", st)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("disk-served study diverges from the cold run")
	}
}

// TestPersistentRunnerKeysOnFullConfig guards the study key against
// aliasing across invocations: a runner with a different configuration on
// the same directory must compute its own study, not read the other's.
func TestPersistentRunnerKeysOnFullConfig(t *testing.T) {
	dir := t.TempDir()
	small := persistTestConfig()

	r1, err := NewPersistentRunner(small, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := study(t, r1, "MCB", 2, false)
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	larger := small
	larger.Runs = 3
	r2, err := NewPersistentRunner(larger, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	second := study(t, r2, "MCB", 2, false)
	if r2.CacheStats().Puts == 0 {
		t.Error("different config was served the persisted study")
	}
	if len(second.Evals) != larger.Runs || len(first.Evals) != small.Runs {
		t.Errorf("evals = %d and %d, want %d and %d",
			len(first.Evals), len(second.Evals), small.Runs, larger.Runs)
	}
}
