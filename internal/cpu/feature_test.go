package cpu

import (
	"os"
	"runtime"
	"testing"
)

// TestKernelNameConsistent: the label must agree with the Host flags.
func TestKernelNameConsistent(t *testing.T) {
	name := KernelName()
	switch {
	case Host.AVX2:
		if name != "avx2" {
			t.Errorf("KernelName() = %q with AVX2 detected, want avx2", name)
		}
	default:
		if name != "scalar" {
			t.Errorf("KernelName() = %q with no vector features, want scalar", name)
		}
	}
	t.Logf("host vector unit: %s", name)
}

// TestPuregoOverride: with BP_PUREGO set, every feature flag must come
// back false — the CI scalar-fallback leg runs the whole suite under this
// env var, so the assertion is live there and vacuous otherwise.
func TestPuregoOverride(t *testing.T) {
	if os.Getenv("BP_PUREGO") == "" {
		t.Skip("BP_PUREGO not set; override path exercised by the CI fallback leg")
	}
	if Host.AVX2 {
		t.Errorf("BP_PUREGO set but Host = %+v, want all features off", Host)
	}
}

// TestArchSanity: features impossible for the build architecture must be
// off (detection must never report a unit the binary cannot execute).
func TestArchSanity(t *testing.T) {
	if runtime.GOARCH != "amd64" && Host.AVX2 {
		t.Errorf("AVX2 detected on %s", runtime.GOARCH)
	}
}
