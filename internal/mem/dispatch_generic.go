//go:build purego || !amd64

package mem

// No vector kernels on this build (non-amd64 architecture, or the `purego`
// scalar-fallback build tag): useSIMD is a constant false, so the compiler
// removes the dispatch branch and every set goes through fillSet.
const useSIMD = false

func fill8SIMD(set *[8]uint64, enc uint64) bool { panic("mem: no SIMD kernel on this build") }

func fill16SIMD(set *[16]uint64, enc uint64) bool { panic("mem: no SIMD kernel on this build") }
