package simpoint

import (
	"encoding/binary"
	"math"
	"testing"

	"barrierpoint/internal/cpu"
)

// kernelEdgeValues are the float64s most likely to expose a kernel that is
// not bit-identical: signed zeros, infinities, NaN, subnormals, and
// magnitudes where the rounding of the difference, the square and the sum
// all matter.
var kernelEdgeValues = []float64{
	0, math.Copysign(0, -1),
	1, -1, 0.5, -0.5,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	1e154, -1e154, 1e-160, -1e-160,
	0x1p-1022,          // smallest normal
	1.0000000000000002, // 1 + ulp
	3.141592653589793, 2.718281828459045,
}

// fillKernelVec derives a deterministic vector mixing edge values with
// pseudo-random magnitudes.
func fillKernelVec(dst []float64, seed uint64) {
	x := seed
	for i := range dst {
		x = x*6364136223846793005 + 1442695040888963407
		if (x>>5)%4 == 0 {
			dst[i] = kernelEdgeValues[(x>>33)%uint64(len(kernelEdgeValues))]
		} else {
			dst[i] = (float64((x>>33)%2000001) - 1e6) / 997
		}
	}
}

// sameBits reports where a and b first differ under sameFloat.
func sameBits(a, b []float64) (int, bool) {
	for j := range a {
		if !sameFloat(a[j], b[j]) {
			return j, false
		}
	}
	return -1, true
}

// blockedOf lays pts out as sqDistBlocks reads them, with every padding
// lane of the last block holding a stale NaN: a kernel that let lanes mix
// would leak it into a live lane.
func blockedOf(pts [][]float64, dim int) []float64 {
	blk := make([]float64, blocks(len(pts))*lanes*dim)
	for i := range blk {
		blk[i] = math.NaN()
	}
	for i, v := range pts {
		for j, x := range v {
			blk[((i/lanes)*dim+j)*lanes+i%lanes] = x
		}
	}
	return blk
}

// checkBlocks measures pts against c with the kernel and fails on the
// first live lane that differs from sqDist.
func checkBlocks(t *testing.T, pts [][]float64, c []float64) {
	t.Helper()
	out := make([]float64, blocks(len(pts))*lanes)
	sqDistBlocks(out, blockedOf(pts, len(c)), c)
	for i, v := range pts {
		if want := sqDist(v, c); !sameFloat(out[i], want) {
			t.Fatalf("dim=%d n=%d: lane %d = %x, sqDist %x (point %v, centre %v)",
				len(c), len(pts), i, math.Float64bits(out[i]), math.Float64bits(want), v, c)
		}
	}
}

func requireKernel(t testing.TB) {
	if !useSIMD {
		t.Skipf("no distance kernel on this build or host (%s)", cpu.KernelName())
	}
}

// TestSqDistBlockMatchesSqDist: every live lane of the distance kernel is
// bit-identical to sqDist for every dimension in 1..64, every count of
// live lanes in the last block, and one to three blocks per call (the
// paired and the lone block paths), over edge values.
func TestSqDistBlockMatchesSqDist(t *testing.T) {
	requireKernel(t)
	for dim := 1; dim <= 64; dim++ {
		c := make([]float64, dim)
		fillKernelVec(c, uint64(dim)*7919)
		for n := 1; n <= 3*lanes; n++ {
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = make([]float64, dim)
				fillKernelVec(pts[i], uint64(dim*1000+n*31+i))
			}
			// A point equal to the centre sums exact zeros.
			copy(pts[n/2], c)
			checkBlocks(t, pts, c)
		}
	}
}

// TestPackLayout: pack lays out a study's points so that the kernel
// measures each of them exactly as sqDist does, and zeroes the padding
// lanes a larger study left behind.
func TestPackLayout(t *testing.T) {
	requireKernel(t)
	s := NewScratch()
	for _, n := range []int{40, 23, 8, 1} {
		pts := gaussPoints(uint64(n), n, 30, 3, 1, 0.5)
		s.pack(pts, 30)
		c := pts[n-1].Vec
		out := make([]float64, blocks(n)*lanes)
		sqDistBlocks(out, s.blk, c)
		for i, p := range pts {
			if want := sqDist(p.Vec, c); !sameFloat(out[i], want) {
				t.Fatalf("n=%d: point %d = %v, sqDist %v", n, i, out[i], want)
			}
		}
		for i := n; i < len(out); i++ {
			if want := sqDist(make([]float64, 30), c); out[i] != want {
				t.Fatalf("n=%d: padding lane %d = %v, want the zero vector's %v", n, i, out[i], want)
			}
		}
	}
}

// TestAddRowMatchesScalar and TestShiftRowsMatchesScalar: the row kernels
// match the plain loops across every body/tail split and edge values.
func TestAddRowMatchesScalar(t *testing.T) {
	for n := 0; n <= 67; n++ {
		got, want, v := make([]float64, n), make([]float64, n), make([]float64, n+3)
		fillKernelVec(got, uint64(n)*13)
		copy(want, got)
		fillKernelVec(v, uint64(n)*17+1)
		addRow(got, v)
		for j := range want {
			want[j] += v[j]
		}
		if j, ok := sameBits(got, want); !ok {
			t.Fatalf("n=%d: addRow diverges at %d: %v != %v", n, j, got[j], want[j])
		}
	}
}

func TestShiftRowsMatchesScalar(t *testing.T) {
	for k := 1; k <= 21; k++ {
		for _, rows := range []int{0, 1, 2, 7} {
			got, want, d := make([]float64, rows*k), make([]float64, rows*k), make([]float64, k)
			fillKernelVec(got, uint64(k*100+rows))
			copy(want, got)
			fillKernelVec(d, uint64(k)*29+3)
			shiftRows(got, d)
			for i := range want {
				want[i] -= d[i%k]
			}
			if j, ok := sameBits(got, want); !ok {
				t.Fatalf("k=%d rows=%d: shiftRows diverges at %d: %v != %v", k, rows, j, got[j], want[j])
			}
		}
	}
}

// FuzzSqDistBlock: on raw float64 bit patterns — NaN payloads, ±Inf,
// subnormals — every live lane of the distance kernel matches sqDist. The
// fuzzer picks the dimension (1..64), the live lanes of the last block
// (1..8) and the number of blocks (1..3); raw supplies the centre and then
// the points' coordinates, cycled when it runs short.
func FuzzSqDistBlock(f *testing.F) {
	f.Add(uint8(29), uint8(6), uint8(0), floatBytes(1, 2, 3, math.NaN(), math.Inf(1), -0.0, 1e-310, 5))
	f.Add(uint8(0), uint8(7), uint8(2), floatBytes(math.Inf(-1), math.Inf(1), 0, 1e300, -1e300))
	f.Add(uint8(63), uint8(0), uint8(1), floatBytes(0x1p-1074, 0x1p-1022, 1.5, -2.25))
	f.Fuzz(func(t *testing.T, dimB, liveB, blocksB uint8, raw []byte) {
		requireKernel(t)
		if len(raw) < 8 {
			return
		}
		dim := 1 + int(dimB)%64
		n := (int(blocksB)%3)*lanes + 1 + int(liveB)%lanes
		word := 0
		next := func() float64 {
			off := (word * 8) % (len(raw) / 8 * 8)
			word++
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[off:]))
		}
		c := make([]float64, dim)
		for j := range c {
			c[j] = next()
		}
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, dim)
			for j := range pts[i] {
				pts[i][j] = next()
			}
		}
		checkBlocks(t, pts, c)
	})
}
