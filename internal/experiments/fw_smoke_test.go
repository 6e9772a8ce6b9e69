package experiments

import "testing"

func TestFutureWorkQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	r := NewRunner(Config{Seed: 7, Runs: 1, Reps: 10, Threads: []int{4}})
	renderGolden(t, r, "fw-coretypes", "fw-coarsen", "fw-multiplex", "fw-refine", "fw-isadiff")
}
