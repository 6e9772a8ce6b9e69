package cpu

// Feature detection for the runtime-dispatched SIMD kernels: simpoint's
// k-means distance, row-add and bound-shift kernels, mem's whole-set
// cache probes and xrand's polar transform. Detection runs once at init;
// kernels consult the exported flags to pick a vector implementation,
// keeping the portable scalar loop as the fallback everywhere detection
// comes back false.
//
// The BP_PUREGO environment variable (any non-empty value) forces every
// flag false, pinning the process to the portable scalar kernels without a
// rebuild; the `purego` build tag removes the SIMD kernels at compile time.

// Features describes the SIMD capabilities of the host CPU, after applying
// the BP_PUREGO override.
type Features struct {
	// AVX2 is true when the CPU and OS support 256-bit AVX2 vectors
	// (CPUID AVX2 + AVX + OSXSAVE, with YMM state enabled in XCR0).
	AVX2 bool
}

// Host holds the detected features of this process's CPU. It is written
// once during init and read-only afterwards.
var Host Features

// KernelName returns a short label for the vector unit the kernels
// dispatch to ("avx2" or "scalar"), for logs and test skip messages.
func KernelName() string {
	if Host.AVX2 {
		return "avx2"
	}
	return "scalar"
}
