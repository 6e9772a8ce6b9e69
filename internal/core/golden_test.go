package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"barrierpoint/internal/golden"
)

// baselineDigest digests the LDV baseline of cfg's canonical discovery
// run: the projected LDV rows every jittered run reuses and a worker
// receives with a jittered unit. Clustering can pick the same points
// under a different projection, so the sets alone do not pin the
// projection; the rows do.
func baselineDigest(t *testing.T, build ProgramBuilder, cfg DiscoveryConfig) string {
	t.Helper()
	_, base, err := DiscoverBaseline(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return golden.Digest(struct {
		N, Dim int
		Proj   []float64
	}{base.n, base.dim, base.proj})
}

// TestGoldenEquivalenceStreamingVsDense is the gate on the signature
// pipeline: a full Quick-style study (sparse pin.Stream views into the
// reusable sigvec.Builder, generation-reset stack distances) must
// reproduce the committed report, the digest of the entire StudyResult
// and the digest of the study's LDV baseline byte for byte. The goldens
// were written by the dense reference path (full-array zeroing, the
// allocating two-projection composition) while it still existed, and
// the streaming path matched it then. Every float along the way feeds
// k-means seeding and representative selection, so any arithmetic
// divergence, however small, shows up here.
func TestGoldenEquivalenceStreamingVsDense(t *testing.T) {
	build := phasedBuilder(3, 10)
	cfg := StudyConfig{Threads: 4, Runs: 3, Reps: 5, Seed: 2017}
	res, err := RunStudy("golden", build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rep bytes.Buffer
	if err := res.WriteJSON(&rep); err != nil {
		t.Fatalf("rendering report: %v", err)
	}
	golden.Check(t, "report.json", rep.Bytes())
	golden.Check(t, "result.sha256", []byte(golden.Digest(res)+"\n"))
	golden.Check(t, "baseline.sha256", []byte(baselineDigest(t, build, cfg.WithDefaults().Discovery())+"\n"))
}

// TestGoldenEquivalenceDiscoveryVectors checks the pipeline one layer
// deeper for the signature-ablation shapes RunStudy does not cover
// (BBV-only, LDV-only): per-run barrier point sets and the canonical
// run's LDV baseline must match the committed JSON and digest, also
// written by the dense reference path.
func TestGoldenEquivalenceDiscoveryVectors(t *testing.T) {
	build := phasedBuilder(4, 8)
	for _, variant := range []struct {
		name string
		mut  func(*DiscoveryConfig)
	}{
		{"bbv+ldv", func(*DiscoveryConfig) {}},
		{"bbv-only", func(c *DiscoveryConfig) { c.DisableLDV = true }},
		{"ldv-only", func(c *DiscoveryConfig) { c.DisableBBV = true }},
	} {
		t.Run(variant.name, func(t *testing.T) {
			cfg := DiscoveryConfig{Threads: 2, Runs: 3, Seed: 7}
			variant.mut(&cfg)
			sets, err := Discover(build, cfg)
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.MarshalIndent(sets, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, "sets.json", append(js, '\n'))
			golden.Check(t, "baseline.sha256", []byte(baselineDigest(t, build, cfg)+"\n"))
		})
	}
}
