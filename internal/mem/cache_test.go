package mem

import (
	"math/rand/v2"
	"testing"
)

func TestNewCacheGeometry(t *testing.T) {
	c := NewCache("L1", 32*1024, 8)
	if c.Sets() != 64 || c.Ways() != 8 || c.SizeBytes() != 32*1024 {
		t.Errorf("geometry: sets=%d ways=%d size=%d", c.Sets(), c.Ways(), c.SizeBytes())
	}
}

func TestNewCachePanicsOnBadGeometry(t *testing.T) {
	for _, f := range []func(){
		func() { NewCache("x", 0, 8) },
		func() { NewCache("x", 32*1024, 0) },
		func() { NewCache("x", 3*1024, 8) }, // 48 lines / 8 ways = 6 sets, not power of 2
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache("t", 4*1024, 4)
	if c.Access(100) {
		t.Error("first access must miss")
	}
	if !c.Access(100) {
		t.Error("second access must hit")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("counters: hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 sets x 2 ways: lines with the same parity collide.
	c := NewCache("t", 256, 2)
	if c.Sets() != 2 {
		t.Fatalf("sets = %d", c.Sets())
	}
	c.Access(0) // set 0
	c.Access(2) // set 0, second way
	c.Access(0) // refresh 0, making 2 the LRU
	c.Access(4) // set 0, evicts 2
	if !c.Contains(0) {
		t.Error("line 0 should survive (recently used)")
	}
	if c.Contains(2) {
		t.Error("line 2 should be evicted (LRU)")
	}
	if !c.Contains(4) {
		t.Error("line 4 should be resident")
	}
}

func TestCacheCapacityWorkingSets(t *testing.T) {
	// A working set that fits must stop missing after the first sweep; a
	// working set 2x the capacity swept cyclically must always miss (LRU
	// pathological case).
	c := NewCache("t", 64*64, 4) // 64 lines
	for sweep := 0; sweep < 3; sweep++ {
		for line := uint64(0); line < 64; line++ {
			c.Access(line)
		}
	}
	if c.Misses != 64 {
		t.Errorf("fitting working set: misses = %d, want 64 cold only", c.Misses)
	}
	c.Reset()
	for sweep := 0; sweep < 3; sweep++ {
		for line := uint64(0); line < 128; line++ {
			c.Access(line)
		}
	}
	if c.Hits != 0 {
		t.Errorf("cyclic overflow sweep should never hit under LRU, got %d hits", c.Hits)
	}
}

func TestCacheFillDoesNotCount(t *testing.T) {
	c := NewCache("t", 4*1024, 4)
	c.Fill(7)
	if c.Hits != 0 || c.Misses != 0 {
		t.Error("Fill must not count as an access")
	}
	if !c.Access(7) {
		t.Error("filled line should hit")
	}
}

func TestCacheReset(t *testing.T) {
	c := NewCache("t", 4*1024, 4)
	c.Access(1)
	c.Access(1)
	c.Reset()
	if c.Hits != 0 || c.Misses != 0 {
		t.Error("counters must clear")
	}
	if c.Contains(1) {
		t.Error("contents must clear")
	}
}

func TestCacheName(t *testing.T) {
	if NewCache("L2-3", 1024, 4).Name() != "L2-3" {
		t.Error("name not preserved")
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{L1: "L1", L2: "L2", L3: "L3", Memory: "Memory"} {
		if l.String() != want {
			t.Errorf("%d: %q", l, l.String())
		}
	}
	if Level(9).String() != "Level(9)" {
		t.Error("unknown level should render numerically")
	}
}

// lruOracle is the timestamped true-LRU cache that Cache replaced, kept
// verbatim as the reference the recency-ordered sets must match
// operation for operation: every way carries the clock value of its last
// use, and a miss evicts the lowest-index way with the smallest stamp.
type lruOracle struct {
	name  string
	sets  uint64
	ways  int
	tags  []uint64 // sets*ways entries; 0 means invalid (tags stored +1)
	stamp []uint64 // LRU timestamps parallel to tags
	clock uint64

	// Hits and Misses count accesses (not fills) since the last Reset.
	Hits, Misses uint64
}

func newLRUOracle(name string, sizeBytes, ways int) *lruOracle {
	sets := sizeBytes / 64 / ways
	return &lruOracle{
		name:  name,
		sets:  uint64(sets),
		ways:  ways,
		tags:  make([]uint64, sets*ways),
		stamp: make([]uint64, sets*ways),
	}
}

// Access looks line up, fills it on a miss, and reports whether it hit.
func (c *lruOracle) Access(line uint64) bool {
	c.clock++
	set := line % c.sets
	base := int(set) * c.ways
	enc := line + 1
	victim, oldest := base, c.stamp[base]
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == enc {
			c.stamp[i] = c.clock
			c.Hits++
			return true
		}
		if c.stamp[i] < oldest {
			victim, oldest = i, c.stamp[i]
		}
	}
	c.Misses++
	c.tags[victim] = enc
	c.stamp[victim] = c.clock
	return false
}

// Fill inserts line without counting a demand access (used by the
// prefetcher). An already-present line just has its recency refreshed.
func (c *lruOracle) Fill(line uint64) {
	c.clock++
	set := line % c.sets
	base := int(set) * c.ways
	enc := line + 1
	victim, oldest := base, c.stamp[base]
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == enc {
			c.stamp[i] = c.clock
			return
		}
		if c.stamp[i] < oldest {
			victim, oldest = i, c.stamp[i]
		}
	}
	c.tags[victim] = enc
	c.stamp[victim] = c.clock
}

// Contains reports whether line is resident, without disturbing LRU state.
func (c *lruOracle) Contains(line uint64) bool {
	set := line % c.sets
	base := int(set) * c.ways
	enc := line + 1
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == enc {
			return true
		}
	}
	return false
}

// Reset invalidates all contents and clears counters.
func (c *lruOracle) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
		c.stamp[i] = 0
	}
	c.clock = 0
	c.Hits = 0
	c.Misses = 0
}

// cacheGeometry is one size/associativity pair of the exactness tests.
type cacheGeometry struct {
	name      string
	sizeBytes int
	ways      int
}

// exactGeometries are the caches the recency-ordered sets are checked
// on: direct-mapped, the 2-set x 2-way corner, fully associative, and
// Table II's L1D, L2 and L3 (identical on both machines).
var exactGeometries = []cacheGeometry{
	{"1-way", 4 * 64, 1},
	{"1-set-1-way", 64, 1},
	{"2-set-2-way", 256, 2},
	{"fully-assoc-8", 8 * 64, 8},
	{"L1D-32K-8", 32 * 1024, 8},
	{"L2-256K-8", 256 * 1024, 8},
	{"L3-8M-16", 8 * 1024 * 1024, 16},
}

// cacheOp is one operation of an exactness sequence.
type cacheOp uint8

const (
	opAccess cacheOp = iota
	opFill
	opContains
	opReset
)

// checkCacheOp applies op to both caches and fails on the first
// observable difference: the operation's result and the counters.
func checkCacheOp(t *testing.T, c *Cache, o *lruOracle, step int, op cacheOp, line uint64) {
	t.Helper()
	switch op {
	case opAccess:
		if got, want := c.Access(line), o.Access(line); got != want {
			t.Fatalf("step %d: Access(%#x) = %v, oracle %v", step, line, got, want)
		}
	case opFill:
		want := o.Contains(line)
		o.Fill(line)
		if got := c.Fill(line); got != want {
			t.Fatalf("step %d: Fill(%#x) presence = %v, oracle %v", step, line, got, want)
		}
	case opContains:
		if got, want := c.Contains(line), o.Contains(line); got != want {
			t.Fatalf("step %d: Contains(%#x) = %v, oracle %v", step, line, got, want)
		}
	case opReset:
		c.Reset()
		o.Reset()
	}
	if c.Hits != o.Hits || c.Misses != o.Misses {
		t.Fatalf("step %d: counters %d/%d, oracle %d/%d", step, c.Hits, c.Misses, o.Hits, o.Misses)
	}
}

// conflictLines returns n lines drawn from [0, 2^63) that map to sets 0,
// 1 and 2 in turn (fewer sets when the cache has fewer), so with n = 54
// every set in use sees more distinct lines than any geometry has ways.
func conflictLines(rng *rand.Rand, sets uint64, n int) []uint64 {
	lines := make([]uint64, n)
	for i := range lines {
		lines[i] = (rng.Uint64()>>1)&^(sets-1) | uint64(i%3)&(sets-1)
	}
	return lines
}

// TestCacheMatchesLRUOracle runs random Access/Fill/Contains/Reset
// sequences against the recency-ordered cache and the stamped oracle and
// compares every result and counter. The lines concentrate on at most
// three sets (at least 18 candidates each, more than the widest set has
// ways) so full sets evict constantly, 45% of operations repeat the previous line (hits on
// the MRU way), and an occasional fresh line from [0, 2^63) misses.
func TestCacheMatchesLRUOracle(t *testing.T) {
	for _, g := range exactGeometries {
		t.Run(g.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 10; seed++ {
				rng := rand.New(rand.NewPCG(seed, 0x5eed))
				c := NewCache(g.name, g.sizeBytes, g.ways)
				o := newLRUOracle(g.name, g.sizeBytes, g.ways)
				lines := conflictLines(rng, uint64(c.Sets()), 54)
				line := lines[0]
				for step := 0; step < 20000; step++ {
					switch r := rng.IntN(100); {
					case r < 45:
						// Repeat the previous line.
					case r < 97:
						line = lines[rng.IntN(len(lines))]
					default:
						line = rng.Uint64() >> 1
					}
					var op cacheOp
					switch r := rng.IntN(1000); {
					case r < 550:
						op = opAccess
					case r < 800:
						op = opFill
					case r < 998:
						op = opContains
					default:
						op = opReset
					}
					checkCacheOp(t, c, o, step, op, line)
				}
				for _, l := range lines {
					if c.Contains(l) != o.Contains(l) {
						t.Fatalf("seed %d: final residency of %#x differs", seed, l)
					}
				}
			}
		})
	}
}

// FuzzCacheExact checks the recency-ordered cache against the stamped
// oracle on fuzzer-chosen operation sequences. Each pair of ops bytes is
// one operation: the first picks Access, Fill, Contains or (rarely)
// Reset, the second one of 256 lines spread over [0, 2^63) by tagSeed
// but confined to four sets, so sets overflow on every geometry.
func FuzzCacheExact(f *testing.F) {
	f.Add(uint8(0), uint64(0), []byte{0, 1, 0, 1, 1, 2, 2, 1})
	f.Add(uint8(2), uint64(42), []byte{0, 0, 0, 4, 0, 8, 0, 0, 5, 4, 6, 12})
	f.Add(uint8(6), uint64(7), []byte("the quick brown fox jumps over the lazy dog"))
	// Hits at every way position, then an eviction, on the 8-way fully
	// associative set, Table II's 8-way L1D and 16-way L3, by Access
	// and by Fill.
	for _, geom := range []uint8{3, 4, 6} {
		for _, op := range []byte{byte(opAccess), byte(opFill)} {
			f.Add(geom, uint64(geom), waySweepOps(exactGeometries[geom].ways, op))
		}
	}
	f.Fuzz(func(t *testing.T, geom uint8, tagSeed uint64, ops []byte) {
		g := exactGeometries[int(geom)%len(exactGeometries)]
		c := NewCache(g.name, g.sizeBytes, g.ways)
		o := newLRUOracle(g.name, g.sizeBytes, g.ways)
		mask := uint64(c.Sets() - 1)
		for i := 0; i+1 < len(ops); i += 2 {
			op := cacheOp(ops[i] % 4)
			if op == opReset && ops[i] < 252 {
				op = opAccess
			}
			b := uint64(ops[i+1])
			tag := (b + tagSeed) * 0x9e3779b97f4a7c15
			line := (tag>>1)&^mask | b&3&mask
			checkCacheOp(t, c, o, i/2, op, line)
		}
	})
}

// waySweepOps is a FuzzCacheExact op sequence on one set of a ways-way
// cache: op on ways distinct lines fills the set (the last one filled is
// way 0), op on them again from the last filled to the first hits ways
// 0, 1, ..., ways-1 in turn (a hit at way p leaves the ways behind p
// where they were), and op on one more line evicts the last way. Every
// line byte is a multiple of 4, so all of them map to set 0.
func waySweepOps(ways int, op byte) []byte {
	var ops []byte
	for i := 0; i < ways; i++ {
		ops = append(ops, op, byte(4*i))
	}
	for i := ways - 1; i >= 0; i-- {
		ops = append(ops, op, byte(4*i))
	}
	return append(ops, op, byte(4*ways))
}
