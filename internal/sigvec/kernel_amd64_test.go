//go:build amd64 && !purego

package sigvec

import (
	"math"
	"testing"

	"barrierpoint/internal/cpu"
)

// TestAVX2MatchesScalarDirect pits the assembly kernel against the scalar
// reference head-to-head across every length in [0, 67] (all body/tail
// splits), unaligned slice bases (odd offsets into a shared backing
// array), and edge values. Skips on hosts without AVX2.
func TestAVX2MatchesScalarDirect(t *testing.T) {
	if !cpu.Host.AVX2 {
		t.Skip("host has no AVX2")
	}
	const maxN = 67
	// Slices start at odd offsets into the backing arrays so the kernel is
	// exercised on 8-byte-but-not-32-byte-aligned bases, the common case
	// for rows carved out of the projector's flat matrix.
	backGot := make([]float64, maxN+3)
	backWant := make([]float64, maxN+3)
	backRow := make([]float64, maxN+3)
	for n := 0; n <= maxN; n++ {
		for off := 0; off <= 3; off++ {
			got := backGot[off : off+n]
			want := backWant[off : off+n]
			row := backRow[off : off+n]
			seed := uint64(n)*17 + uint64(off)
			fillKernelVec(got, seed)
			copy(want, got)
			fillKernelVec(row, seed^0xabcd)
			for _, x := range []float64{1 / 3.0, -2.75, math.NaN(), math.Inf(1), 0, math.Copysign(0, -1), 1e-310, 1e300} {
				accumulateAVX2(got, row, x)
				accumulateScalar(want, row, x)
				if j, ok := sameBits(got, want); !ok {
					t.Fatalf("n=%d off=%d x=%g: AVX2 diverges from scalar at %d: %x != %x",
						n, off, x, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}
		}
	}
}

// TestProjectionAVX2MatchesScalar forces each dispatch path in turn
// through the Builder, on a canonical run's point and on a jittered run's
// (no LDV views), and requires bit-identical signature vectors. This is
// the end-to-end equivalence the goldens in internal/core rely on when CI
// machines differ in AVX2 support.
func TestProjectionAVX2MatchesScalar(t *testing.T) {
	if !cpu.Host.AVX2 {
		t.Skip("host has no AVX2")
	}
	saved := useSIMD
	defer func() { useSIMD = saved }()

	for _, dim := range []int{1, 3, 4, 5, 8, 15, 16, 31} {
		b := NewBuilder(Options{Dim: dim, UseBBV: true, UseLDV: true, Seed: uint64(dim) * 131})
		outV := make([]float64, b.Dims())
		outS := make([]float64, b.Dims())
		for seed := uint64(0); seed < 20; seed++ {
			_, bIdx, bVal := randVecs(seed, 320, 80)
			_, lIdx, lVal := randVecs(seed^0xfeed, 160, 40)
			for _, jittered := range []bool{false, true} {
				li, lv := lIdx, lVal
				if jittered {
					li, lv = nil, nil
				}
				useSIMD = true
				b.BuildSparseInto(outV, bIdx, bVal, li, lv)
				useSIMD = false
				b.BuildSparseInto(outS, bIdx, bVal, li, lv)
				if j, ok := sameBits(outV, outS); !ok {
					t.Fatalf("dim=%d seed=%d jittered=%v: AVX2 and scalar signature vectors diverge at %d: %x != %x",
						dim, seed, jittered, j, math.Float64bits(outV[j]), math.Float64bits(outS[j]))
				}
			}
		}
	}
}

// BenchmarkAccumulateAVX2 and BenchmarkAccumulateScalar measure the raw
// kernels at the pipeline's real row width (DefaultDim = 15: three 4-wide
// iterations plus a 3-long tail).
func BenchmarkAccumulateAVX2(b *testing.B) {
	if !cpu.Host.AVX2 {
		b.Skip("host has no AVX2")
	}
	out := make([]float64, DefaultDim)
	row := make([]float64, DefaultDim)
	fillKernelVec(row, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		accumulateAVX2(out, row, 0.125)
	}
}

func BenchmarkAccumulateScalar(b *testing.B) {
	out := make([]float64, DefaultDim)
	row := make([]float64, DefaultDim)
	fillKernelVec(row, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		accumulateScalar(out, row, 0.125)
	}
}
