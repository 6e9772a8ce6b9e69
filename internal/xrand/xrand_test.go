package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(7, "noise")
	b := Derive(7, "noise")
	if a.Uint64() != b.Uint64() {
		t.Fatal("Derive with identical name/seed must match")
	}
	c := Derive(7, "noise2")
	d := Derive(7, "noise")
	d.Uint64() // skip the value already consumed by a
	if c.Uint64() == d.Uint64() {
		t.Fatal("distinct names should give distinct streams")
	}
}

func TestDeriveChildDoesNotEqualParentStream(t *testing.T) {
	parent := New(99)
	child := parent.Derive("sub")
	p2 := New(99)
	p2.Uint64() // parent consumed one value to derive
	if child.Uint64() == p2.Uint64() {
		t.Fatal("child stream must not mirror parent stream")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for n := 1; n < 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(17)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Fatalf("bucket %d count %d deviates more than 5%% from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %f too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %f too far from 1", variance)
	}
}

func TestNoisePositive(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		if f := r.Noise(0.5); f <= 0 {
			t.Fatalf("noise factor %f not positive", f)
		}
	}
}

func TestNoiseCenteredOnOne(t *testing.T) {
	r := New(13)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Noise(0.01)
	}
	if mean := sum / n; math.Abs(mean-1) > 0.001 {
		t.Fatalf("noise mean %f should be ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	for n := 0; n < 50; n++ {
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(29)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle lost elements: %v", s)
	}
}

func TestMul128KnownValues(t *testing.T) {
	hi, lo := mul128(math.MaxUint64, math.MaxUint64)
	if hi != math.MaxUint64-1 || lo != 1 {
		t.Fatalf("mul128(max,max) = (%d,%d)", hi, lo)
	}
	hi, lo = mul128(1<<32, 1<<32)
	if hi != 1 || lo != 0 {
		t.Fatalf("mul128(2^32,2^32) = (%d,%d)", hi, lo)
	}
}

// TestNormFloat64sMatchesNormFloat64: a batch of every length from 0 to
// 1000 returns exactly the variates as many NormFloat64 calls return,
// with and without a cached variate pending on entry, and leaves the
// generator where those calls leave it: the same state and cached
// variate (pending after an odd remainder), so the same next NormFloat64
// and the same next Uint64.
func TestNormFloat64sMatchesNormFloat64(t *testing.T) {
	for _, pending := range []bool{false, true} {
		for n := 0; n <= 1000; n++ {
			seq, batch := New(uint64(n)), New(uint64(n))
			if pending {
				seq.NormFloat64()
				batch.NormFloat64()
			}
			dst := make([]float64, n)
			batch.NormFloat64s(dst)
			for i, got := range dst {
				if want := seq.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("pending=%v n=%d: variate %d = %v, NormFloat64 %v", pending, n, i, got, want)
				}
			}
			if *seq != *batch {
				t.Fatalf("pending=%v n=%d: generator %+v, after NormFloat64 calls %+v", pending, n, *batch, *seq)
			}
			if a, b := seq.NormFloat64(), batch.NormFloat64(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("pending=%v n=%d: next NormFloat64 %v, NormFloat64 %v", pending, n, b, a)
			}
			if seq.Uint64() != batch.Uint64() {
				t.Fatalf("pending=%v n=%d: next Uint64 differs", pending, n)
			}
		}
	}
}
