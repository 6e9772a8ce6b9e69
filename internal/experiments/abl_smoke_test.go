package experiments

import "testing"

func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweep")
	}
	r := NewRunner(Config{Seed: 7, Runs: 2, Reps: 5, Threads: []int{2}})
	renderGolden(t, r, "ablation-signature", "ablation-drop", "ablation-runs", "ablation-dim")
}
