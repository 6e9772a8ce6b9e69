//go:build amd64 && !purego

package simpoint

import "testing"

// TestClusterAVX2MatchesScalar forces each dispatch path in turn through
// ClusterWith and requires bit-identical results: the end-to-end
// equivalence the golden gates in internal/core rely on when CI machines
// differ in AVX2 support. The shapes cover a partial last block, dims on
// both sides of the 4-wide row kernels' tails, a study large enough that
// seeding prunes part of each pass, and one the ball partition takes.
func TestClusterAVX2MatchesScalar(t *testing.T) {
	requireKernel(t)
	saved := useSIMD
	defer func() { useSIMD = saved }()

	cases := []struct {
		name   string
		points []Point
		maxK   int
	}{
		{"discovery-shaped", studyPoints(2, 150, 30, 5), 20},
		{"partial-block", gaussPoints(3, 61, 7, 4, 1, 0.3), 12},
		{"pruning", gaussPoints(4, 900, 15, 12, 1, 0.05), 20},
		{"duplicates", repeated(5, 4, 9, 3), 10},
		{"non-finite", withNonFinite(gaussPoints(6, 80, 4, 4, 1, 0.3)), 8},
		{"ball-partition", gaussPoints(7, 650, 30, 14, 1, 1e-3), 6},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(17)
		cfg.MaxK = tc.maxK
		useSIMD = true
		vec, err := ClusterWith(tc.points, cfg, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		useSIMD = false
		scalar, err := ClusterWith(tc.points, cfg, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, tc.name, vec, scalar)
	}
}
