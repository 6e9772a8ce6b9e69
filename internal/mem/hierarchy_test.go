package mem

import (
	"math/rand/v2"
	"testing"
)

func twoThreadConfig(prefetch int) HierarchyConfig {
	return HierarchyConfig{
		L1Of:    []int{0, 1},
		L2Of:    []int{0, 0}, // shared L2, like an X-Gene cluster
		L1Bytes: 4 * 1024, L1Ways: 4,
		L2Bytes: 32 * 1024, L2Ways: 8,
		L3Bytes: 256 * 1024, L3Ways: 16,
		PrefetchDegree: prefetch,
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy(twoThreadConfig(0))
	if got := h.Access(0, 42); got != Memory {
		t.Errorf("cold access = %v, want Memory", got)
	}
	if got := h.Access(0, 42); got != L1 {
		t.Errorf("hot access = %v, want L1", got)
	}
}

func TestHierarchySharedL2BetweenThreads(t *testing.T) {
	h := NewHierarchy(twoThreadConfig(0))
	h.Access(0, 42) // thread 0 pulls the line through L2
	if got := h.Access(1, 42); got != L2 {
		t.Errorf("thread 1 should hit shared L2, got %v", got)
	}
}

func TestHierarchyPrivateL1(t *testing.T) {
	h := NewHierarchy(twoThreadConfig(0))
	h.Access(0, 42)
	h.Access(1, 42)
	// Thread 1's access must not have polluted thread 0's L1.
	if !h.L1Cache(0).Contains(42) {
		t.Error("thread 0 L1 lost its line")
	}
	if h.L1Cache(0) == h.L1Cache(1) {
		t.Error("threads should have distinct L1s in this topology")
	}
}

func TestHierarchyL3SharedByAll(t *testing.T) {
	cfg := twoThreadConfig(0)
	cfg.L2Of = []int{0, 1} // private L2s
	h := NewHierarchy(cfg)
	h.Access(0, 42)
	if got := h.Access(1, 42); got != L3 {
		t.Errorf("thread 1 with private L2 should hit shared L3, got %v", got)
	}
}

func TestPrefetcherCutsSequentialMisses(t *testing.T) {
	miss := func(prefetch int) uint64 {
		h := NewHierarchy(twoThreadConfig(prefetch))
		for line := uint64(0); line < 1000; line++ {
			h.Access(0, line)
		}
		return h.L1Cache(0).Misses
	}
	none, deg1, deg4 := miss(0), miss(1), miss(4)
	if none != 1000 {
		t.Errorf("no prefetch: %d misses, want 1000", none)
	}
	if deg1 >= none || deg4 >= deg1 {
		t.Errorf("prefetch should monotonically cut misses: %d, %d, %d", none, deg1, deg4)
	}
	if deg4 > 260 {
		t.Errorf("degree-4 prefetch should cut sequential misses to ~20%%, got %d", deg4)
	}
}

func TestPrefetcherDoesNotHelpRandom(t *testing.T) {
	runMisses := func(prefetch int) uint64 {
		h := NewHierarchy(twoThreadConfig(prefetch))
		x := uint64(12345)
		for i := 0; i < 2000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			h.Access(0, (x>>33)%100000)
		}
		return h.L1Cache(0).Misses
	}
	none, deg4 := runMisses(0), runMisses(4)
	if float64(deg4) < 0.9*float64(none) {
		t.Errorf("prefetch should not significantly help random access: %d vs %d", deg4, none)
	}
}

func TestStreamPrefetcherNearlyEliminatesSequentialMisses(t *testing.T) {
	cfg := twoThreadConfig(4)
	cfg.PrefetchStream = true
	h := NewHierarchy(cfg)
	for line := uint64(0); line < 10000; line++ {
		h.Access(0, line)
	}
	if m := h.L1Cache(0).Misses; m > 100 {
		t.Errorf("stream prefetch should nearly eliminate sequential misses, got %d", m)
	}
	// Next-line-on-miss (Intel style) must leave far more misses.
	h2 := NewHierarchy(twoThreadConfig(1))
	for line := uint64(0); line < 10000; line++ {
		h2.Access(0, line)
	}
	if ratio := float64(h2.L1Cache(0).Misses) / float64(h.L1Cache(0).Misses+1); ratio < 20 {
		t.Errorf("Intel-style prefetch should leave >>20x more misses, ratio %f", ratio)
	}
}

func TestStreamPrefetcherDoesNotFireOnRandom(t *testing.T) {
	cfg := twoThreadConfig(4)
	cfg.PrefetchStream = true
	h := NewHierarchy(cfg)
	x := uint64(99)
	for i := 0; i < 3000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		h.Access(0, (x>>33)%1000000)
	}
	misses := h.L1Cache(0).Misses
	if float64(misses) < 0.95*3000 {
		t.Errorf("random stream should still miss nearly always, got %d/3000", misses)
	}
}

func TestHierarchyReset(t *testing.T) {
	h := NewHierarchy(twoThreadConfig(0))
	h.Access(0, 42)
	h.Reset()
	if got := h.Access(0, 42); got != Memory {
		t.Errorf("after reset access should miss everywhere, got %v", got)
	}
}

func TestHierarchyPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHierarchy(HierarchyConfig{L1Of: []int{0}, L2Of: []int{0, 1}})
}

// oracleHierarchy is Hierarchy's access, prefetch and warm logic built on
// lruOracle caches, as it stood before Fill reported presence: prefetch
// probes L2 and L3 with Contains and then fills them.
type oracleHierarchy struct {
	cfg        HierarchyConfig
	l1, l2     []*lruOracle
	l3         *lruOracle
	lastLine   []uint64
	streak     []int
	pfL2, pfL3 []uint64
}

func newOracleHierarchy(cfg HierarchyConfig) *oracleHierarchy {
	h := &oracleHierarchy{cfg: cfg}
	for t := range cfg.L1Of {
		for len(h.l1) <= cfg.L1Of[t] {
			h.l1 = append(h.l1, newLRUOracle("L1", cfg.L1Bytes, cfg.L1Ways))
		}
		for len(h.l2) <= cfg.L2Of[t] {
			h.l2 = append(h.l2, newLRUOracle("L2", cfg.L2Bytes, cfg.L2Ways))
		}
	}
	h.l3 = newLRUOracle("L3", cfg.L3Bytes, cfg.L3Ways)
	h.lastLine = make([]uint64, len(h.l1))
	h.streak = make([]int, len(h.l1))
	h.pfL2 = make([]uint64, len(cfg.L1Of))
	h.pfL3 = make([]uint64, len(cfg.L1Of))
	return h
}

func (h *oracleHierarchy) DrainPrefetchStats(thread int) PrefetchStats {
	s := PrefetchStats{L2FillMisses: h.pfL2[thread], L3FillMisses: h.pfL3[thread]}
	h.pfL2[thread] = 0
	h.pfL3[thread] = 0
	return s
}

func (h *oracleHierarchy) prefetch(thread, l1dom, l2dom int, line uint64) {
	for d := 1; d <= h.cfg.PrefetchDegree; d++ {
		next := line + uint64(d)
		h.l1[l1dom].Fill(next)
		if !h.l2[l2dom].Contains(next) {
			h.pfL2[thread]++
			if !h.l3.Contains(next) {
				h.pfL3[thread]++
			}
		}
		h.l2[l2dom].Fill(next)
		h.l3.Fill(next)
	}
}

func (h *oracleHierarchy) Access(thread int, line uint64) Level {
	l1dom, l2dom := h.cfg.L1Of[thread], h.cfg.L2Of[thread]
	l1 := h.l1[l1dom]

	if h.cfg.PrefetchStream && h.cfg.PrefetchDegree > 0 {
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

func (h *oracleHierarchy) Warm(thread int, line uint64) {
	h.l1[h.cfg.L1Of[thread]].Fill(line)
	h.l2[h.cfg.L2Of[thread]].Fill(line)
	h.l3.Fill(line)
}

// Table II hierarchies at 8 threads, topologies as machine.Topology maps
// them: the Intel i7 (4 cores x 2 SMT threads, next-line prefetch of
// degree 1), the X-Gene (8 cores, L2 per 2-core cluster, stream prefetch
// of degree 4) and the in-order ARMv8 model (X-Gene topology, next-line
// prefetch of degree 2).
func intel8() HierarchyConfig {
	return HierarchyConfig{
		L1Of: []int{0, 1, 2, 3, 0, 1, 2, 3}, L2Of: []int{0, 1, 2, 3, 0, 1, 2, 3},
		L1Bytes: 32 * 1024, L1Ways: 8,
		L2Bytes: 256 * 1024, L2Ways: 8,
		L3Bytes: 8 * 1024 * 1024, L3Ways: 16,
		PrefetchDegree: 1,
	}
}

func xgene8() HierarchyConfig {
	cfg := intel8()
	cfg.L1Of = []int{0, 1, 2, 3, 4, 5, 6, 7}
	cfg.L2Of = []int{0, 0, 1, 1, 2, 2, 3, 3}
	cfg.PrefetchDegree = 4
	cfg.PrefetchStream = true
	return cfg
}

func inOrder8() HierarchyConfig {
	cfg := xgene8()
	cfg.PrefetchDegree = 2
	cfg.PrefetchStream = false
	return cfg
}

// shrunk scales a configuration's caches down so short streams overflow
// every level.
func shrunk(cfg HierarchyConfig) HierarchyConfig {
	cfg.L1Bytes, cfg.L1Ways = 1024, 2
	cfg.L2Bytes, cfg.L2Ways = 4096, 4
	cfg.L3Bytes, cfg.L3Ways = 16384, 8
	return cfg
}

// hierStream generates thread/line references in one of four patterns.
// Each thread walks its own window of lines between 2^20 and 2^63,
// wrapping around it; the windows are half an L1, two L1s, two L2s and
// three L3 shares wide in turn, so re-sweeps hit at every level and
// overflow every level on the shrunk geometries. The issuing thread
// changes in bursts, as a thread runs a stretch of a region.
type hierStream struct {
	rng     *rand.Rand
	pattern string
	thread  int
	base    []uint64 // per-thread window start
	span    []uint64 // per-thread window length
	off     []uint64 // per-thread cursor within the window
	stride  uint64
}

func newHierStream(seed uint64, cfg HierarchyConfig, pattern string) *hierStream {
	s := &hierStream{rng: rand.New(rand.NewPCG(seed, 0x41e7)), pattern: pattern}
	l1, l2, l3 := uint64(cfg.L1Bytes/64), uint64(cfg.L2Bytes/64), uint64(cfg.L3Bytes/64)
	spans := []uint64{l1 / 2, 2 * l1, 2 * l2, 3 * l3 / uint64(len(cfg.L1Of))}
	for t := range cfg.L1Of {
		s.base = append(s.base, 1<<20+s.rng.Uint64N(1<<62))
		s.span = append(s.span, spans[t%len(spans)])
		s.off = append(s.off, 0)
	}
	s.stride = []uint64{2, 3, 17, 64, 4096}[s.rng.IntN(5)]
	return s
}

func (s *hierStream) next() (thread int, line uint64) {
	if s.rng.IntN(16) == 0 {
		s.thread = s.rng.IntN(len(s.base))
	}
	t := s.thread
	pattern := s.pattern
	if pattern == "mixed" {
		pattern = []string{"sequential", "strided", "random", "repeat"}[s.rng.IntN(4)]
	}
	switch pattern {
	case "sequential":
		s.off[t] = (s.off[t] + 1) % s.span[t]
	case "strided":
		s.off[t] = (s.off[t] + s.stride) % s.span[t]
	case "random":
		s.off[t] = s.rng.Uint64N(s.span[t])
	}
	return t, s.base[t] + s.off[t]
}

// TestHierarchyMatchesOracle drives the recency-ordered hierarchy and the
// stamped oracle hierarchy with the same reference and warm streams and
// compares every returned Level, prefetch statistics drained at random
// points, and every cache's counters.
func TestHierarchyMatchesOracle(t *testing.T) {
	configs := map[string]HierarchyConfig{
		"intel-nextline-1":          intel8(),
		"xgene-stream-4":            xgene8(),
		"inorder-nextline-2":        inOrder8(),
		"shared-l2-nextline-1":      twoThreadConfig(1),
		"intel-nextline-1-shrunk":   shrunk(intel8()),
		"xgene-stream-4-shrunk":     shrunk(xgene8()),
		"inorder-nextline-2-shrunk": shrunk(inOrder8()),
	}
	for name, cfg := range configs {
		for i, pattern := range []string{"sequential", "strided", "random", "mixed"} {
			t.Run(name+"/"+pattern, func(t *testing.T) {
				seed := uint64(100 + i)
				h, o := NewHierarchy(cfg), newOracleHierarchy(cfg)
				s := newHierStream(seed, cfg, pattern)
				events := rand.New(rand.NewPCG(seed, 1))
				for step := 0; step < 60000; step++ {
					thread, line := s.next()
					if events.IntN(20) == 0 {
						h.Warm(thread, line)
						o.Warm(thread, line)
						continue
					}
					if got, want := h.Access(thread, line), o.Access(thread, line); got != want {
						t.Fatalf("step %d: Access(%d, %#x) = %v, oracle %v", step, thread, line, got, want)
					}
					if events.IntN(50) == 0 {
						if got, want := h.DrainPrefetchStats(thread), o.DrainPrefetchStats(thread); got != want {
							t.Fatalf("step %d: thread %d prefetch stats %+v, oracle %+v", step, thread, got, want)
						}
					}
				}
				compareHierarchies(t, h, o)
			})
		}
	}
}

// allCaches lists a hierarchy's L1s, then its L2s, then its L3.
func allCaches(h *Hierarchy) []*Cache {
	return append(append(append([]*Cache{}, h.l1...), h.l2...), h.l3)
}

// compareHierarchies drains every thread's prefetch statistics and
// compares them and every cache's counters.
func compareHierarchies(t *testing.T, h *Hierarchy, o *oracleHierarchy) {
	t.Helper()
	for thread := range h.cfg.L1Of {
		if got, want := h.DrainPrefetchStats(thread), o.DrainPrefetchStats(thread); got != want {
			t.Errorf("thread %d prefetch stats %+v, oracle %+v", thread, got, want)
		}
	}
	caches := allCaches(h)
	oracles := append(append(append([]*lruOracle{}, o.l1...), o.l2...), o.l3)
	if len(caches) != len(oracles) {
		t.Fatalf("%d caches, oracle %d", len(caches), len(oracles))
	}
	for i, c := range caches {
		if c.Hits != oracles[i].Hits || c.Misses != oracles[i].Misses {
			t.Errorf("%s: hits/misses %d/%d, oracle %d/%d", c.Name(), c.Hits, c.Misses, oracles[i].Hits, oracles[i].Misses)
		}
	}
}

// TestHierarchyResetMatchesFresh pins the contract AcquireHierarchy
// relies on: Reset restores the exact state of a newly built hierarchy.
// The dirtying stream ends mid-stride, leaving the stream detectors
// primed and prefetch counts undrained, and the replay continues exactly
// where it stopped, so stale detector state, stale counts or stale lines
// would all change what the replay observes.
func TestHierarchyResetMatchesFresh(t *testing.T) {
	for name, cfg := range map[string]HierarchyConfig{
		"intel": intel8(), "xgene": xgene8(), "inorder": inOrder8(),
		"xgene-shrunk": shrunk(xgene8()),
	} {
		t.Run(name, func(t *testing.T) {
			const start = 1 << 20
			threads := len(cfg.L1Of)
			used := NewHierarchy(cfg)
			for i := 0; i < 4000; i++ {
				used.Access(i%threads, start+uint64(i/threads))
			}
			var pending uint64
			for _, n := range used.pfL2 {
				pending += n
			}
			if pending == 0 || cfg.PrefetchStream && used.streak[0] < 2 {
				t.Fatal("dirtying stream left no prefetch counts or detector state to clear")
			}
			used.Reset()
			fresh := NewHierarchy(cfg)
			access := func(step, thread int, line uint64) {
				if got, want := used.Access(thread, line), fresh.Access(thread, line); got != want {
					t.Fatalf("replay step %d: reset hierarchy %v, fresh %v", step, got, want)
				}
			}
			// Line 0 repeats a fresh detector's last line, so only a stale
			// streak can prefetch on it.
			access(0, 0, 0)
			for i := 4000; i < 8000; i++ {
				line := start + uint64(i/threads)
				if i%5 == 0 {
					line -= 400 // revisit lines the dirtying stream touched
				}
				access(i, i%threads, line)
			}
			for thread := 0; thread < threads; thread++ {
				if got, want := used.DrainPrefetchStats(thread), fresh.DrainPrefetchStats(thread); got != want {
					t.Errorf("thread %d prefetch stats %+v, fresh %+v", thread, got, want)
				}
			}
			caches, freshCaches := allCaches(used), allCaches(fresh)
			for i, c := range caches {
				if c.Hits != freshCaches[i].Hits || c.Misses != freshCaches[i].Misses {
					t.Errorf("%s: hits/misses %d/%d, fresh %d/%d", c.Name(), c.Hits, c.Misses, freshCaches[i].Hits, freshCaches[i].Misses)
				}
			}
		})
	}
}
