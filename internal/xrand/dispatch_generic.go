//go:build purego || !amd64

package xrand

// No vector kernel on this build (non-amd64 architecture, or the `purego`
// scalar-fallback build tag): useSIMD is a constant false, so the compiler
// removes the dispatch branch and every scale factor is polarScale's.
// arm64 would also need its own kernel: math.Log is Go code there, not
// the amd64 assembly polar_amd64.s repeats.
const useSIMD = false

func polarScalesSIMD(s []float64) { panic("xrand: no SIMD kernel on this build") }
