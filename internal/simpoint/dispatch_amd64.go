//go:build amd64 && !purego

package simpoint

import "barrierpoint/internal/cpu"

// The AVX2 k-means kernels (kernel_amd64.s).
//
//go:noescape
func sqDistBlocksAVX2(out, blk, c []float64)

//go:noescape
func addRowAVX2(row, v []float64)

//go:noescape
func shiftRowsAVX2(rows, d []float64)

// useSIMD selects the vector kernels once at init, after internal/cpu has
// probed the host (and applied the BP_PUREGO override).
var useSIMD = cpu.Host.AVX2

// The *SIMD functions dispatch to the host's vector kernels. They are only
// called when useSIMD is true.

//bp:noalloc
func sqDistBlocksSIMD(out, blk, c []float64) { sqDistBlocksAVX2(out, blk, c) }

//bp:noalloc
func addRowSIMD(row, v []float64) { addRowAVX2(row, v) }

//bp:noalloc
func shiftRowsSIMD(rows, d []float64) { shiftRowsAVX2(rows, d) }
