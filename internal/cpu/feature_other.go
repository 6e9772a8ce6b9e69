//go:build purego || !amd64

package cpu

// No SIMD kernels on this build: Host keeps its zero value and KernelName
// reports "scalar".
