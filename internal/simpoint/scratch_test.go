package simpoint

import (
	"math"
	"reflect"
	"testing"

	"barrierpoint/internal/xrand"
)

// studyPoints builds a point set shaped like a real discovery study:
// mostly-periodic signature vectors with a few distinct phases, exact
// duplicates included.
func studyPoints(seed uint64, n, dim, phases int) []Point {
	rng := xrand.New(seed)
	base := make([][]float64, phases)
	for p := range base {
		base[p] = make([]float64, dim)
		for j := range base[p] {
			base[p][j] = rng.NormFloat64()
		}
	}
	pts := make([]Point, n)
	for i := range pts {
		b := base[i%phases]
		v := make([]float64, dim)
		copy(v, b)
		if i%7 == 0 { // jitter some points; the rest stay exact duplicates
			for j := range v {
				v[j] += 0.01 * rng.NormFloat64()
			}
		}
		pts[i] = Point{Vec: v, Weight: float64(1 + i%5)}
	}
	return pts
}

func resultsEqual(t *testing.T, tag string, a, b *Result) {
	t.Helper()
	if a.K != b.K {
		t.Fatalf("%s: K %d != %d", tag, a.K, b.K)
	}
	if !reflect.DeepEqual(a.Assign, b.Assign) {
		t.Fatalf("%s: assignments differ", tag)
	}
	if !reflect.DeepEqual(a.Representatives, b.Representatives) {
		t.Fatalf("%s: representatives %v != %v", tag, a.Representatives, b.Representatives)
	}
	for c := range a.Multipliers {
		if math.Float64bits(a.Multipliers[c]) != math.Float64bits(b.Multipliers[c]) {
			t.Fatalf("%s: multiplier[%d] %v != %v", tag, c, a.Multipliers[c], b.Multipliers[c])
		}
		if math.Float64bits(a.ClusterWeights[c]) != math.Float64bits(b.ClusterWeights[c]) {
			t.Fatalf("%s: clusterWeight[%d] %v != %v", tag, c, a.ClusterWeights[c], b.ClusterWeights[c])
		}
	}
	if math.Float64bits(a.BIC) != math.Float64bits(b.BIC) {
		t.Fatalf("%s: BIC %v != %v", tag, a.BIC, b.BIC)
	}
}

// TestScratchReuseBitIdentical: one Scratch reused across back-to-back
// studies of varying size must produce exactly the results a fresh
// allocation produces — assignments, representatives, multipliers, and
// BIC all bit-identical. This is the contract that lets the discovery
// pipeline pool clustering scratch across runs.
func TestScratchReuseBitIdentical(t *testing.T) {
	studies := []struct {
		seed         uint64
		n, dim       int
		phases, maxK int
	}{
		{1, 60, 30, 4, 8},  // typical study
		{2, 9, 6, 3, 20},   // maxK clamped to n
		{3, 120, 15, 2, 6}, // bigger n after smaller: forces regrow
		{4, 25, 30, 5, 8},  // smaller again: stale tail cells present
		{5, 25, 30, 5, 8},  // same shape, different data
		// A large study fills n*maxK lower bounds; the smaller one after it
		// reads its bounds at stride k out of that stale array.
		{6, 300, 12, 7, 20},
		{7, 45, 12, 6, 9},
	}
	reused := NewScratch()
	for _, st := range studies {
		pts := studyPoints(st.seed, st.n, st.dim, st.phases)
		cfg := DefaultConfig(st.seed * 31)
		cfg.MaxK = st.maxK

		fresh, err := ClusterWith(pts, cfg, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		got, err := ClusterWith(pts, cfg, reused)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, "reused-scratch", fresh, got)

		pooled, err := Cluster(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, "pooled-scratch", fresh, pooled)
	}
}

// TestScratchResultDoesNotAliasScratch: mutating the scratch after
// clustering must not change a returned Result.
func TestScratchResultDoesNotAliasScratch(t *testing.T) {
	pts := studyPoints(9, 40, 10, 3)
	cfg := DefaultConfig(5)
	cfg.MaxK = 6
	s := NewScratch()
	res, err := ClusterWith(pts, cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), res.Assign...)
	if _, err := ClusterWith(studyPoints(10, 80, 10, 2), cfg, s); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Assign, want) {
		t.Fatal("Result.Assign changed when the scratch was reused")
	}
}

// TestClusterConcurrentPool: the internal pool must keep concurrent
// Cluster calls isolated (run under -race in CI).
func TestClusterConcurrentPool(t *testing.T) {
	pts := studyPoints(11, 50, 12, 4)
	cfg := DefaultConfig(13)
	cfg.MaxK = 6
	want, err := Cluster(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Result, 8)
	for g := 0; g < 8; g++ {
		go func() {
			res, err := Cluster(pts, cfg)
			if err != nil {
				t.Error(err)
				done <- nil
				return
			}
			done <- res
		}()
	}
	for g := 0; g < 8; g++ {
		if res := <-done; res != nil {
			resultsEqual(t, "concurrent", want, res)
		}
	}
}

// BenchmarkClusterReused measures the per-study clustering cost with the
// pooled scratch — the discovery pipeline's shape.
func BenchmarkClusterReused(b *testing.B) {
	pts := studyPoints(21, 60, 30, 4)
	cfg := DefaultConfig(7)
	cfg.MaxK = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(pts, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
