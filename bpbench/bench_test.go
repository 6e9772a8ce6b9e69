package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the tests hold the program to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmokeEmitsEveryMetric runs every workload at smoke-test size, with
// and without tracing, and checks that each emits exactly the metrics
// BENCHMARK.json names, with their declared units, and checks out.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(s.Workloads), len(workloads))
	}
	for _, wl := range s.Workloads {
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			name := wl.Name + map[bool]string{false: "/untraced", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				res, err := run(context.Background(), config{workload: wl.Name, seed: 7, trace: traced, tiny: true})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s emitted in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// TestCorruptedDigestCountsAsFailure records a smoke run's output digests,
// corrupts one, and checks that exactly that output is counted as failed.
func TestCorruptedDigestCountsAsFailure(t *testing.T) {
	cfg := config{workload: "paper-suite", seed: 7, tiny: true, noRefs: true}
	runPass := func(cfg config) (tally, map[string]string) {
		w := workloads[cfg.workload](cfg)
		defer w.close()
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		var tl tally
		if _, err := w.pass(context.Background(), &tl); err != nil {
			t.Fatal(err)
		}
		return tl, w.checker().seen
	}
	_, seen := runPass(cfg)
	if len(seen) == 0 {
		t.Fatal("no digests recorded")
	}

	cfg.noRefs = false
	cfg.refs = seen
	if tl, _ := runPass(cfg); tl.failed != 0 {
		t.Fatalf("recorded digests: %d of %d outputs failed, want 0", tl.failed, tl.attempted)
	}

	corrupt := map[string]string{}
	var victim string
	for k, v := range seen {
		corrupt[k] = v
		victim = k
	}
	corrupt[victim] = strings.Repeat("0", len(seen[victim]))
	cfg.refs = corrupt
	if tl, _ := runPass(cfg); tl.failed != 1 || tl.attempted != len(seen) {
		t.Fatalf("one corrupted digest (%s): %d of %d outputs failed, want 1 of %d", victim, tl.failed, tl.attempted, len(seen))
	}
}

// TestRecordedRefsCoverEveryOutput checks that refs.json holds a digest
// for every output the full-size workloads check at the default seed.
func TestRecordedRefsCoverEveryOutput(t *testing.T) {
	var refs map[string]string
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"paper-suite": 7, "collect-variants": 56, "fleet-sweep": 18}
	got := map[string]int{}
	for k := range refs {
		got[strings.SplitN(k, "/", 2)[0]]++
	}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("refs.json has %d digests for %s, want %d", got[w], w, n)
		}
	}
}
