//go:build purego || !amd64

package simpoint

// No vector kernels on this build (non-amd64 architecture, or the `purego`
// scalar-fallback build tag): useSIMD is a constant false, so the compiler
// removes every dispatch branch, ClusterWith never builds the blocked
// point copy, and k-means runs the portable scalar loops. arm64 stays
// scalar for the reason internal/sigvec gives: Go's arm64 assembler names
// only the fused vector multiply-adds.
const useSIMD = false

func sqDistBlocksSIMD(out, blk, c []float64) { panic("simpoint: no SIMD kernel on this build") }

func addRowSIMD(row, v []float64) { panic("simpoint: no SIMD kernel on this build") }

func shiftRowsSIMD(rows, d []float64) { panic("simpoint: no SIMD kernel on this build") }
