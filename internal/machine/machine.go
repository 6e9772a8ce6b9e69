// Package machine assembles the two evaluation platforms of the paper's
// Table II — the Intel Core i7-3770 and the AppliedMicro X-Gene — from the
// ISA, timing, and cache-hierarchy substrates, and defines the performance
// counter metrics the PMU exposes.
package machine

import (
	"fmt"

	"barrierpoint/internal/cpu"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/mem"
)

// Metric enumerates the hardware counters the paper collects with PAPI:
// cycles, retired instructions, L1 data cache misses, and L2 cache data
// misses (instruction misses are ignored; the proxy apps have tiny
// instruction footprints).
type Metric int

const (
	// Cycles is the core clock cycle counter.
	Cycles Metric = iota
	// Instructions counts retired instructions.
	Instructions
	// L1DMisses counts L1 data cache misses.
	L1DMisses
	// L2DMisses counts L2 cache data misses.
	L2DMisses

	// NumMetrics is the number of collected metrics.
	NumMetrics
)

var metricNames = [NumMetrics]string{"Cycles", "Instructions", "L1D Misses", "L2D Misses"}

// String implements fmt.Stringer.
func (m Metric) String() string {
	if m < 0 || m >= NumMetrics {
		return fmt.Sprintf("Metric(%d)", int(m))
	}
	return metricNames[m]
}

// Metrics returns all metrics in reporting order.
func Metrics() []Metric {
	return []Metric{Cycles, Instructions, L1DMisses, L2DMisses}
}

// Counters holds one value per metric (one thread's counters for one
// barrier point, or aggregates thereof).
type Counters [NumMetrics]float64

// Add returns the element-wise sum.
func (c Counters) Add(o Counters) Counters {
	var out Counters
	for i := range c {
		out[i] = c[i] + o[i]
	}
	return out
}

// Scale returns the counters multiplied by f.
func (c Counters) Scale(f float64) Counters {
	var out Counters
	for i := range c {
		out[i] = c[i] * f
	}
	return out
}

// NoiseProfile models the run-to-run variability of PMU measurements on a
// real machine (Section V-C). Every measured value v becomes
// v*(1+CV*g1) + Floor*g2 with g1,g2 standard normal draws: a relative
// component and an absolute perturbation floor. Counters with very low
// true values (e.g. CoMD's L1D misses on the X-Gene) are dominated by the
// floor, which is exactly the pathology the paper reports.
type NoiseProfile struct {
	CV    [NumMetrics]float64
	Floor [NumMetrics]float64
}

// Machine is one evaluation platform.
type Machine struct {
	Name string
	ISA  *isa.ISA
	CPU  *cpu.Model
	// PhysicalCores and ThreadsPerCore describe the topology: the i7-3770
	// is 4 cores x 2 SMT threads; the X-Gene is 4 clusters x 2 cores.
	PhysicalCores  int
	ThreadsPerCore int
	// Cache geometry (Table II).
	L1Bytes, L1Ways int
	L2Bytes, L2Ways int
	L3Bytes, L3Ways int
	// L2Scope is the number of consecutive L1 domains sharing one L2: 1
	// on Intel (per-core L2), 2 on the X-Gene (per-cluster L2).
	L2Scope int
	// PrefetchDegree and PrefetchStream configure the hierarchy's
	// prefetcher (see mem.HierarchyConfig).
	PrefetchDegree int
	PrefetchStream bool
	// Noise is the measurement variability profile.
	Noise NoiseProfile
}

// MaxThreads returns the maximum usable thread count.
func (m *Machine) MaxThreads() int { return m.PhysicalCores * m.ThreadsPerCore }

// Validate checks the machine description.
func (m *Machine) Validate() error {
	if m.PhysicalCores <= 0 || m.ThreadsPerCore <= 0 {
		return fmt.Errorf("machine %q: bad topology", m.Name)
	}
	if m.L2Scope <= 0 {
		return fmt.Errorf("machine %q: bad L2 scope", m.Name)
	}
	if m.ISA == nil || m.CPU == nil {
		return fmt.Errorf("machine %q: missing ISA or CPU model", m.Name)
	}
	return m.CPU.Validate()
}

// Topology returns the thread->L1 and thread->L2 maps for a run with the
// given thread count. Threads are pinned to distinct physical cores first
// (as the paper pins threads to avoid migration), so SMT sharing on Intel
// only appears at 8 threads.
func (m *Machine) Topology(threads int) (l1Of, l2Of []int, err error) {
	if threads <= 0 {
		return nil, nil, fmt.Errorf("machine %q: thread count %d not positive", m.Name, threads)
	}
	if threads > m.MaxThreads() {
		return nil, nil, fmt.Errorf("machine %q: %d threads exceed %d hardware threads",
			m.Name, threads, m.MaxThreads())
	}
	l1Of = make([]int, threads)
	l2Of = make([]int, threads)
	for t := 0; t < threads; t++ {
		core := t % m.PhysicalCores // fill physical cores before SMT siblings
		l1Of[t] = core
		l2Of[t] = core / m.L2Scope
	}
	return l1Of, l2Of, nil
}

// HierarchyConfig returns the cache hierarchy a run with the given thread
// count simulates: the thread-to-cache topology, the geometry and the
// prefetcher. Two machines with equal configurations simulate the same
// touch stream identically, whatever their ISA, timing model or noise.
func (m *Machine) HierarchyConfig(threads int) (mem.HierarchyConfig, error) {
	l1Of, l2Of, err := m.Topology(threads)
	if err != nil {
		return mem.HierarchyConfig{}, err
	}
	return mem.HierarchyConfig{
		L1Of: l1Of, L2Of: l2Of,
		L1Bytes: m.L1Bytes, L1Ways: m.L1Ways,
		L2Bytes: m.L2Bytes, L2Ways: m.L2Ways,
		L3Bytes: m.L3Bytes, L3Ways: m.L3Ways,
		PrefetchDegree: m.PrefetchDegree,
		PrefetchStream: m.PrefetchStream,
	}, nil
}

// NewHierarchy builds a fresh (cold) cache hierarchy for a run with the
// given thread count.
func (m *Machine) NewHierarchy(threads int) (*mem.Hierarchy, error) {
	cfg, err := m.HierarchyConfig(threads)
	if err != nil {
		return nil, err
	}
	return mem.NewHierarchy(cfg), nil
}

// AcquireHierarchy is NewHierarchy against the hierarchy pool: the
// returned hierarchy is cold (a reused one is fully Reset) and must be
// handed back with mem.ReleaseHierarchy after the run.
func (m *Machine) AcquireHierarchy(threads int) (*mem.Hierarchy, error) {
	cfg, err := m.HierarchyConfig(threads)
	if err != nil {
		return nil, err
	}
	return mem.AcquireHierarchy(cfg), nil
}

// IntelI7 returns the Intel Core i7-3770 platform of Table II:
// 3.4 GHz, 4 cores x 2 threads, 32 KB L1D + 256 KB L2 per core,
// 8 MB shared L3.
func IntelI7() *Machine {
	m := &Machine{
		Name:           "Intel Core i7-3770",
		ISA:            isa.X8664(),
		CPU:            cpu.IntelIvyBridge(),
		PhysicalCores:  4,
		ThreadsPerCore: 2,
		L1Bytes:        32 * 1024, L1Ways: 8,
		L2Bytes: 256 * 1024, L2Ways: 8,
		L3Bytes: 8 * 1024 * 1024, L3Ways: 16,
		L2Scope:        1,
		PrefetchDegree: 1,
	}
	m.Noise.CV = [NumMetrics]float64{0.004, 0.0015, 0.006, 0.008}
	m.Noise.Floor = [NumMetrics]float64{1200, 400, 25, 12}
	return m
}

// APMXGene returns the AppliedMicro X-Gene platform of Table II:
// 2.4 GHz, 4 clusters x 2 cores, 32 KB L1D per core, 256 KB L2 per
// cluster, 8 MB shared L3.
func APMXGene() *Machine {
	m := &Machine{
		Name:           "AppliedMicro X-Gene",
		ISA:            isa.ARMv8(),
		CPU:            cpu.APMXGene(),
		PhysicalCores:  8,
		ThreadsPerCore: 1,
		L1Bytes:        32 * 1024, L1Ways: 8,
		L2Bytes: 256 * 1024, L2Ways: 8,
		L3Bytes: 8 * 1024 * 1024, L3Ways: 16,
		L2Scope:        2,    // L2 shared per 2-core cluster
		PrefetchDegree: 4,    // aggressive stream prefetch:
		PrefetchStream: true, // almost no L1D misses on unit-stride sweeps
	}
	m.Noise.CV = [NumMetrics]float64{0.005, 0.002, 0.009, 0.009}
	// The L1D floor is large relative to streaming workloads' miss counts
	// on this machine (the stream prefetcher hides almost all of them):
	// that is the CoMD variability pathology of Section V-C.
	m.Noise.Floor = [NumMetrics]float64{1500, 500, 60, 15}
	return m
}

// ARMInOrder returns a hypothetical in-order ARMv8 platform (Cortex-A53
// class cores in the X-Gene's cache topology). The paper's future work
// proposes evaluating the methodology across core types — this platform is
// the in-order target for that experiment.
func ARMInOrder() *Machine {
	m := APMXGene()
	m.Name = "ARM in-order (Cortex-A53 class)"
	m.CPU = cpu.ARMInOrder()
	// The little core has a simpler next-line prefetcher.
	m.PrefetchDegree = 2
	m.PrefetchStream = false
	m.Noise.CV = [NumMetrics]float64{0.004, 0.0015, 0.007, 0.008}
	m.Noise.Floor = [NumMetrics]float64{1300, 450, 30, 14}
	return m
}

// Lookup returns the platform that executes the given ISA, or an error
// for an ISA neither platform of Table II executes.
func Lookup(a *isa.ISA) (*Machine, error) {
	switch a.Name {
	case "x86_64":
		return IntelI7(), nil
	case "ARMv8":
		return APMXGene(), nil
	}
	return nil, fmt.Errorf("machine: no platform for ISA %q", a.Name)
}

// ForISA is Lookup for an ISA known to have a platform: it panics on any
// other.
func ForISA(a *isa.ISA) *Machine {
	m, err := Lookup(a)
	if err != nil {
		panic(err)
	}
	return m
}
