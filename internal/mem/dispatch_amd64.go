//go:build amd64 && !purego

package mem

import "barrierpoint/internal/cpu"

// The AVX2 set kernels (cache_amd64.s).
//
//go:noescape
func fill8AVX2(set *[8]uint64, enc uint64) bool

//go:noescape
func fill16AVX2(set *[16]uint64, enc uint64) bool

// useSIMD selects the vector kernels once at init, after internal/cpu has
// probed the host (and applied the BP_PUREGO override).
var useSIMD = cpu.Host.AVX2

// The *SIMD functions dispatch to the host's vector kernels. They are only
// called when useSIMD is true.

//bp:noalloc
func fill8SIMD(set *[8]uint64, enc uint64) bool { return fill8AVX2(set, enc) }

//bp:noalloc
func fill16SIMD(set *[16]uint64, enc uint64) bool { return fill16AVX2(set, enc) }
