//go:build amd64 && !purego

package xrand

import "barrierpoint/internal/cpu"

// polarAVX2 is the AVX2 polar transform (polar_amd64.s).
//
//go:noescape
func polarAVX2(s []float64)

// useSIMD selects the vector kernel once at init, after internal/cpu has
// probed the host (and applied the BP_PUREGO override).
var useSIMD = cpu.Host.AVX2

// polarScalesSIMD dispatches to the host's vector kernel. Only called
// when useSIMD is true, with len(s) a multiple of 4.
//
//bp:noalloc
func polarScalesSIMD(s []float64) { polarAVX2(s) }
