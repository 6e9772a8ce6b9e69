package mem

import "fmt"

// HierarchyConfig describes a machine's data-cache topology in the shape of
// the paper's Table II. Thread i's accesses go through L1 cache L1Of[i] and
// L2 cache L2Of[i]; all threads share one L3.
type HierarchyConfig struct {
	// L1Of maps thread index to private/shared L1 index.
	L1Of []int
	// L2Of maps thread index to L2 index (per-core on Intel, per-cluster
	// on the X-Gene).
	L2Of []int
	// Geometry.
	L1Bytes, L1Ways int
	L2Bytes, L2Ways int
	L3Bytes, L3Ways int
	// PrefetchDegree is the number of consecutive next lines pulled into
	// the hierarchy on a prefetch trigger (0 disables prefetching).
	PrefetchDegree int
	// PrefetchStream selects the prefetch trigger. False: next-line
	// prefetch on every demand L1 miss (the Intel model). True: a stream
	// detector that, once it has seen three consecutive lines, prefetches
	// ahead on every access — which almost eliminates L1 misses on
	// unit-stride sweeps. The X-Gene model uses this, and its very low
	// L1D miss counts on streaming kernels are what make CoMD's L1D
	// measurements unusable there (Section V-C).
	PrefetchStream bool
}

// Hierarchy is an instantiated cache hierarchy for one simulated run.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  []*Cache
	l2  []*Cache
	l3  *Cache
	// Stream-detector state, one per L1 domain.
	lastLine []uint64
	streak   []int
	// Per-thread prefetch fill-miss counters.
	pfL2, pfL3 []uint64
}

// NewHierarchy builds the caches for the given configuration.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if len(cfg.L1Of) == 0 || len(cfg.L1Of) != len(cfg.L2Of) {
		panic("mem: hierarchy config must map every thread to an L1 and an L2")
	}
	maxIdx := func(xs []int) int {
		m := -1
		for _, x := range xs {
			if x < 0 {
				panic("mem: negative cache index in topology")
			}
			if x > m {
				m = x
			}
		}
		return m
	}
	h := &Hierarchy{cfg: cfg}
	for i := 0; i <= maxIdx(cfg.L1Of); i++ {
		h.l1 = append(h.l1, NewCache(fmt.Sprintf("L1-%d", i), cfg.L1Bytes, cfg.L1Ways))
	}
	for i := 0; i <= maxIdx(cfg.L2Of); i++ {
		h.l2 = append(h.l2, NewCache(fmt.Sprintf("L2-%d", i), cfg.L2Bytes, cfg.L2Ways))
	}
	h.l3 = NewCache("L3", cfg.L3Bytes, cfg.L3Ways)
	h.lastLine = make([]uint64, len(h.l1))
	h.streak = make([]int, len(h.l1))
	h.pfL2 = make([]uint64, len(cfg.L1Of))
	h.pfL3 = make([]uint64, len(cfg.L1Of))
	return h
}

// PrefetchStats counts prefetch fills that missed a level. Hardware L2/L3
// miss PMU events include prefetcher-generated refills, so these feed the
// measured L2D miss counters even though the demand access later hits.
type PrefetchStats struct {
	L2FillMisses uint64
	L3FillMisses uint64
}

// DrainPrefetchStats returns and clears the prefetch statistics attributed
// to the given thread.
func (h *Hierarchy) DrainPrefetchStats(thread int) PrefetchStats {
	s := PrefetchStats{L2FillMisses: h.pfL2[thread], L3FillMisses: h.pfL3[thread]}
	h.pfL2[thread] = 0
	h.pfL3[thread] = 0
	return s
}

// prefetch pulls degree lines behind `line` into the caches serving the
// given thread, counting fills that were absent from L2/L3 as miss events
// attributed to the thread. Fill reports presence, so each level is
// probed once per line.
//
//bp:noalloc
func (h *Hierarchy) prefetch(thread, l1dom, l2dom int, line uint64) {
	l1, l2 := h.l1[l1dom], h.l2[l2dom]
	for d := 1; d <= h.cfg.PrefetchDegree; d++ {
		next := line + uint64(d)
		l1.Fill(next)
		if inL2, inL3 := l2.Fill(next), h.l3.Fill(next); !inL2 {
			h.pfL2[thread]++
			if !inL3 {
				h.pfL3[thread]++
			}
		}
	}
}

// Access performs one data reference by thread and returns the level that
// satisfied it. Misses allocate at every level on the way down, and the
// configured prefetcher fills ahead of detected access streams.
//
//bp:noalloc
func (h *Hierarchy) Access(thread int, line uint64) Level {
	l1dom, l2dom := h.cfg.L1Of[thread], h.cfg.L2Of[thread]
	l1 := h.l1[l1dom]

	if h.cfg.PrefetchStream && h.cfg.PrefetchDegree > 0 {
		// Stream detector: count consecutive unit-stride references and,
		// once confident, prefetch ahead on every access (hit or miss).
		switch {
		case line == h.lastLine[l1dom]+1:
			h.streak[l1dom]++
		case line == h.lastLine[l1dom]:
			// Repeated line: keep the streak.
		default:
			h.streak[l1dom] = 0
		}
		h.lastLine[l1dom] = line
		if h.streak[l1dom] >= 2 {
			h.prefetch(thread, l1dom, l2dom, line)
		}
	}

	if l1.Access(line) {
		return L1
	}
	if !h.cfg.PrefetchStream && h.cfg.PrefetchDegree > 0 {
		h.prefetch(thread, l1dom, l2dom, line)
	}
	l2 := h.l2[l2dom]
	if l2.Access(line) {
		return L2
	}
	if h.l3.Access(line) {
		return L3
	}
	return Memory
}

// Warm fills line into the caches serving thread without counting any
// access: used to model the memory state left behind by application
// initialisation, which the paper's region of interest deliberately starts
// after.
func (h *Hierarchy) Warm(thread int, line uint64) {
	h.l1[h.cfg.L1Of[thread]].Fill(line)
	h.l2[h.cfg.L2Of[thread]].Fill(line)
	h.l3.Fill(line)
}

// L1Cache returns thread's L1 (for tests and diagnostics).
func (h *Hierarchy) L1Cache(thread int) *Cache { return h.l1[h.cfg.L1Of[thread]] }

// L2Cache returns thread's L2.
func (h *Hierarchy) L2Cache(thread int) *Cache { return h.l2[h.cfg.L2Of[thread]] }

// L3Cache returns the shared last-level cache.
func (h *Hierarchy) L3Cache() *Cache { return h.l3 }

// Reset invalidates every cache in the hierarchy and clears the stream
// detector and undrained prefetch counters, restoring the exact state of
// a freshly built hierarchy (AcquireHierarchy relies on this).
func (h *Hierarchy) Reset() {
	for _, c := range h.l1 {
		c.Reset()
	}
	for _, c := range h.l2 {
		c.Reset()
	}
	h.l3.Reset()
	for i := range h.lastLine {
		h.lastLine[i] = 0
		h.streak[i] = 0
	}
	for i := range h.pfL2 {
		h.pfL2[i] = 0
		h.pfL3[i] = 0
	}
}
