package machine

import (
	"testing"

	"barrierpoint/internal/isa"
)

func TestMachinesValidate(t *testing.T) {
	for _, m := range []*Machine{IntelI7(), APMXGene()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestMaxThreads(t *testing.T) {
	if IntelI7().MaxThreads() != 8 {
		t.Errorf("Intel MaxThreads = %d", IntelI7().MaxThreads())
	}
	if APMXGene().MaxThreads() != 8 {
		t.Errorf("X-Gene MaxThreads = %d", APMXGene().MaxThreads())
	}
}

func TestIntelTopologyFillsCoresFirst(t *testing.T) {
	m := IntelI7()
	l1, l2, err := m.Topology(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range l1 {
		if seen[c] {
			t.Error("4 threads on Intel must use 4 distinct L1s (no SMT sharing)")
		}
		seen[c] = true
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Error("Intel has per-core L2: L1 and L2 domains must match")
		}
	}
	l1, _, err = m.Topology(8)
	if err != nil {
		t.Fatal(err)
	}
	if l1[0] != l1[4] {
		t.Error("8 threads on Intel: threads 0 and 4 should share a physical core")
	}
}

func TestXGeneTopologyClusterL2(t *testing.T) {
	m := APMXGene()
	l1, l2, err := m.Topology(8)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range l1 {
		if seen[c] {
			t.Error("X-Gene has a private L1 per core")
		}
		seen[c] = true
	}
	if l2[0] != l2[1] || l2[0] == l2[2] {
		t.Errorf("X-Gene L2 must be shared per 2-core cluster: %v", l2)
	}
}

func TestTopologyRejectsBadThreadCounts(t *testing.T) {
	m := IntelI7()
	if _, _, err := m.Topology(0); err == nil {
		t.Error("0 threads should fail")
	}
	if _, _, err := m.Topology(9); err == nil {
		t.Error("9 threads should exceed hardware")
	}
}

func TestNewHierarchy(t *testing.T) {
	for _, m := range []*Machine{IntelI7(), APMXGene()} {
		h, err := m.NewHierarchy(8)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if h.L3Cache().SizeBytes() != 8*1024*1024 {
			t.Errorf("%s: L3 size %d", m.Name, h.L3Cache().SizeBytes())
		}
		if h.L1Cache(0).SizeBytes() != 32*1024 {
			t.Errorf("%s: L1 size %d", m.Name, h.L1Cache(0).SizeBytes())
		}
	}
}

func TestMetricString(t *testing.T) {
	want := map[Metric]string{
		Cycles: "Cycles", Instructions: "Instructions",
		L1DMisses: "L1D Misses", L2DMisses: "L2D Misses",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d: %q", m, m.String())
		}
	}
	if Metric(7).String() != "Metric(7)" {
		t.Error("unknown metric should render numerically")
	}
	if len(Metrics()) != int(NumMetrics) {
		t.Error("Metrics() must cover all metrics")
	}
}

func TestCountersAddScale(t *testing.T) {
	a := Counters{1, 2, 3, 4}
	b := Counters{10, 20, 30, 40}
	if got := a.Add(b); got != (Counters{11, 22, 33, 44}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Scale(3); got != (Counters{3, 6, 9, 12}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestForISA(t *testing.T) {
	if ForISA(isa.X8664()).Name != "Intel Core i7-3770" {
		t.Error("x86_64 should map to the Intel platform")
	}
	if ForISA(isa.ARMv8()).Name != "AppliedMicro X-Gene" {
		t.Error("ARMv8 should map to the X-Gene platform")
	}
}

func TestLookupRejectsUnknown(t *testing.T) {
	if m, err := Lookup(&isa.ISA{Name: "riscv"}); err == nil {
		t.Fatalf("Lookup(riscv) = %s, want an error", m.Name)
	}
	if m, err := Lookup(isa.ARMv8()); err != nil || m.Name != APMXGene().Name {
		t.Errorf("Lookup(ARMv8) = %v, %v; want the X-Gene", m, err)
	}
}

func TestForISAPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ForISA(&isa.ISA{Name: "riscv"})
}

func TestXGenePrefetchMoreAggressive(t *testing.T) {
	// The Section V-C CoMD pathology depends on the X-Gene generating far
	// fewer L1D misses on streaming code.
	if APMXGene().PrefetchDegree <= IntelI7().PrefetchDegree {
		t.Error("X-Gene model must prefetch more aggressively than Intel")
	}
	if !APMXGene().PrefetchStream || IntelI7().PrefetchStream {
		t.Error("only the X-Gene should use the stream prefetcher")
	}
}

func TestARMInOrderPlatform(t *testing.T) {
	m := ARMInOrder()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.ISA.Name != "ARMv8" {
		t.Error("in-order platform must run the ARMv8 ISA")
	}
	if m.PrefetchStream {
		t.Error("the little core should not have the stream prefetcher")
	}
	if m.Name == APMXGene().Name {
		t.Error("in-order platform needs its own name")
	}
}
