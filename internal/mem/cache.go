// Package mem models the data-side memory hierarchy of the two machines in
// the paper's Table II (private L1D and L2, shared 8 MB L3) and provides the
// LRU stack-distance computation that BarrierPoint's LDV signatures are
// built from.
package mem

import "fmt"

// Level identifies where in the hierarchy a data reference was satisfied.
type Level int

const (
	// L1 means the reference hit in the first-level data cache.
	L1 Level = iota
	// L2 means it missed L1 and hit the second-level cache.
	L2
	// L3 means it missed L1 and L2 and hit the shared last-level cache.
	L3
	// Memory means it missed the entire hierarchy.
	Memory
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case Memory:
		return "Memory"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Cache is a set-associative, write-allocate cache with true-LRU
// replacement, operating at cache-line granularity. Each set keeps its
// ways most recently used first: a hit moves its line to way 0, and a
// miss or fill shifts the set down one way and writes way 0, so the LRU
// victim is always the last way and invalid ways always form the tail.
// LRU's stack property makes this exact true LRU, with no timestamps.
type Cache struct {
	name string
	mask uint64 // sets-1 (sets is a power of two)
	ways int
	tags []uint64 // sets*ways entries, each set MRU first; 0 means invalid (tags stored +1)

	// Hits and Misses count accesses (not fills) since the last Reset.
	Hits, Misses uint64
}

// NewCache builds a cache of the given total size and associativity.
// sizeBytes must be a multiple of ways*64 and the resulting set count must
// be a power of two (true for every configuration in Table II).
func NewCache(name string, sizeBytes, ways int) *Cache {
	if sizeBytes <= 0 || ways <= 0 {
		panic(fmt.Sprintf("mem: cache %q with non-positive geometry", name))
	}
	lines := sizeBytes / 64
	if lines%ways != 0 {
		panic(fmt.Sprintf("mem: cache %q size %d not divisible by %d ways", name, sizeBytes, ways))
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache %q set count %d not a power of two", name, sets))
	}
	return &Cache{
		name: name,
		mask: uint64(sets - 1),
		ways: ways,
		tags: make([]uint64, sets*ways),
	}
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.mask) + 1 }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SizeBytes returns the total capacity.
func (c *Cache) SizeBytes() int { return c.Sets() * c.ways * 64 }

// set returns the ways line maps to, most recently used first.
func (c *Cache) set(line uint64) []uint64 {
	base := int(line&c.mask) * c.ways
	return c.tags[base : base+c.ways : base+c.ways]
}

// Access looks line up, fills it on a miss, and reports whether it hit.
// line must be below 2^64-1, whose tag would read as invalid (programs
// number lines from 2^20 up; see trace.Program.Finalise).
//
//bp:noalloc
func (c *Cache) Access(line uint64) bool {
	if c.Fill(line) {
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// Fill makes line the most recently used in its set, without counting a
// demand access (the prefetcher and warming use it), and reports whether
// it was already present. An absent line evicts the set's last way.
// A line that is already most recently used changes nothing; the 8- and
// 16-way sets of Table II go through the AVX2 kernels where the host has
// them, and every other set through fillSet.
//
//bp:noalloc
func (c *Cache) Fill(line uint64) bool {
	base := int(line&c.mask) * c.ways
	enc := line + 1
	if c.tags[base] == enc {
		return true
	}
	if useSIMD {
		switch c.ways {
		case 8:
			return fill8SIMD((*[8]uint64)(c.tags[base:]), enc)
		case 16:
			return fill16SIMD((*[16]uint64)(c.tags[base:]), enc)
		}
	}
	return fillSet(c.tags[base:base+c.ways:base+c.ways], enc)
}

// fillSet moves enc to way 0 of set, shifting the ways in front of it
// down one, or, when set does not hold it, shifting the whole set down
// and dropping its last way, and reports whether set held it. It is the
// portable path and the reference the vector kernels are tested against.
//
//bp:noalloc
func fillSet(set []uint64, enc uint64) bool {
	i := 0
	for i < len(set)-1 && set[i] != enc {
		i++
	}
	hit := set[i] == enc
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = enc
	return hit
}

// Contains reports whether line is resident, without disturbing LRU state.
//
//bp:noalloc
func (c *Cache) Contains(line uint64) bool {
	enc := line + 1
	for _, tag := range c.set(line) {
		if tag == enc {
			return true
		}
	}
	return false
}

// Reset invalidates all contents and clears counters.
func (c *Cache) Reset() {
	clear(c.tags)
	c.Hits = 0
	c.Misses = 0
}
