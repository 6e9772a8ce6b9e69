package mem

import (
	"math/rand/v2"
	"slices"
	"testing"

	"barrierpoint/internal/cpu"
)

func requireKernel(t testing.TB) {
	if !useSIMD {
		t.Skipf("no set kernel on this build or host (%s)", cpu.KernelName())
	}
}

// fillKernel runs the vector kernel for a set of 8 or 16 ways.
func fillKernel(set []uint64, enc uint64) bool {
	if len(set) == 8 {
		return fill8SIMD((*[8]uint64)(set), enc)
	}
	return fill16SIMD((*[16]uint64)(set), enc)
}

// TestFillKernelsMatchFillSet: on 8- and 16-way sets holding any number
// of valid ways (invalid ways form the tail), the kernels leave every way
// and report presence exactly as fillSet does, for a line at every way
// position, for a line the set does not hold, and for a set holding the
// line twice (the first copy moves, as in fillSet).
func TestFillKernelsMatchFillSet(t *testing.T) {
	requireKernel(t)
	rng := rand.New(rand.NewPCG(3, 0x5e7))
	for _, ways := range []int{8, 16} {
		for valid := 0; valid <= ways; valid++ {
			for trial := 0; trial < 20; trial++ {
				set := make([]uint64, ways)
				for i := range valid {
					set[i] = rng.Uint64()>>1 + 1
				}
				encs := append(slices.Clone(set[:valid]), rng.Uint64()>>1+1)
				if valid >= 2 {
					dup := slices.Clone(set)
					dup[valid-1] = dup[rng.IntN(valid-1)]
					checkFillKernel(t, dup, dup[valid-1])
				}
				for _, enc := range encs {
					checkFillKernel(t, slices.Clone(set), enc)
				}
			}
		}
	}
}

func checkFillKernel(t *testing.T, set []uint64, enc uint64) {
	t.Helper()
	want := slices.Clone(set)
	wantHit := fillSet(want, enc)
	got := slices.Clone(set)
	if hit := fillKernel(got, enc); hit != wantHit || !slices.Equal(got, want) {
		t.Fatalf("%d ways, enc %#x in %#x: kernel %v %#x, fillSet %v %#x",
			len(set), enc, set, hit, got, wantHit, want)
	}
}
