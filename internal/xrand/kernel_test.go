package xrand

import (
	"math"
	"testing"

	"barrierpoint/internal/cpu"
)

func requireKernel(t testing.TB) {
	if !useSIMD {
		t.Skipf("no transform kernel on this build or host (%s)", cpu.KernelName())
	}
}

// polarEdges are the inputs where math.Log's amd64 assembly takes its
// narrowest paths: the smallest subnormal and the smallest normal
// double, the largest double below 1, and √2/2 (Log's 0x3FE6A09E667F3BCD)
// with both neighbours, where Log's f1 <= √2/2 test flips.
var polarEdges = []float64{
	5e-324,
	0x1p-1022,
	1 - 0x1p-53,
	math.Nextafter(math.Sqrt2/2, 0),
	math.Sqrt2 / 2,
	math.Nextafter(math.Sqrt2/2, 1),
}

// checkPolarKernel runs the kernel on s (a multiple of four long) and
// fails on the first lane that differs from polarScale by a single bit.
func checkPolarKernel(t *testing.T, s []float64) {
	t.Helper()
	got := append([]float64(nil), s...)
	polarScalesSIMD(got)
	for i, x := range s {
		if want := polarScale(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("s = %v (%#x): kernel %v (%#x), math.Sqrt(-2*math.Log(s)/s) %v (%#x)",
				x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// TestPolarKernelMatchesScalar: every lane of the transform kernel is
// bit-identical to math.Sqrt(-2*math.Log(s)/s) on the edge inputs (each
// in every lane) and on random s: uniform in (0, 1), accepted polar
// points, and values spread over every binade of (0, 1).
func TestPolarKernelMatchesScalar(t *testing.T) {
	requireKernel(t)
	for _, x := range polarEdges {
		for lane := 0; lane < 4; lane++ {
			s := []float64{0.25, 0.5, 0.75, 0.125}
			s[lane] = x
			checkPolarKernel(t, s)
		}
	}
	r := New(2017)
	s := make([]float64, 4096)
	for i := range s {
		switch i % 3 {
		case 0:
			s[i] = r.Float64()
			if s[i] == 0 {
				s[i] = 0.5
			}
		case 1:
			_, _, s[i] = r.polar()
		default:
			s[i] = unitInterval(r.Uint64())
		}
	}
	checkPolarKernel(t, s)
}

// unitInterval maps arbitrary bits onto (0, 1), subnormals included: the
// top bits pick the exponent field uniformly among the 1023 below 1's,
// the low 52 the mantissa, and the one zero this yields becomes the
// smallest subnormal.
func unitInterval(bits uint64) float64 {
	exp := (bits >> 52) % 0x3FF
	x := math.Float64frombits(exp<<52 | bits&(1<<52-1))
	if x == 0 {
		return 5e-324
	}
	return x
}

// FuzzPolarExact maps arbitrary float64 bits into (0, 1), subnormals
// included, and fails on the first lane of the transform kernel that
// differs from the scalar transform by a single bit.
func FuzzPolarExact(f *testing.F) {
	for _, x := range polarEdges {
		f.Add(math.Float64bits(x), uint64(0x3FE0000000000000), uint64(1), uint64(0x3FEFFFFFFFFFFFFF))
	}
	f.Add(uint64(0), uint64(1), uint64(1<<52), uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		requireKernel(t)
		checkPolarKernel(t, []float64{unitInterval(a), unitInterval(b), unitInterval(c), unitInterval(d)})
	})
}
