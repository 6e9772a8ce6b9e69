package mem

import (
	"fmt"
	"sync"
)

// Run-lifetime simulation state is the discovery pipeline's largest
// allocation source: a cache hierarchy is megabytes of tag arrays
// and a StackDist carries its grown hash table and Fenwick tree. Both
// types already guarantee that Reset restores the exact cold state (the
// per-region generation-bump reuse inside a run depends on it), which is
// precisely the contract pooling across runs needs: an acquired object is
// behaviourally indistinguishable from a newly constructed one.

// hierPool maps a topology/geometry fingerprint to a pool of hierarchies
// built with exactly that configuration.
var hierPool sync.Map // string -> *sync.Pool

func hierKey(cfg HierarchyConfig) string {
	return fmt.Sprintf("%v;%v;%d/%d;%d/%d;%d/%d;%d;%t",
		cfg.L1Of, cfg.L2Of,
		cfg.L1Bytes, cfg.L1Ways, cfg.L2Bytes, cfg.L2Ways, cfg.L3Bytes, cfg.L3Ways,
		cfg.PrefetchDegree, cfg.PrefetchStream)
}

// AcquireHierarchy returns a cold hierarchy for the configuration,
// reusing a previously released one with identical topology and geometry
// when available. Pair with ReleaseHierarchy when the run is done.
func AcquireHierarchy(cfg HierarchyConfig) *Hierarchy {
	p, _ := hierPool.LoadOrStore(hierKey(cfg), &sync.Pool{})
	if h, ok := p.(*sync.Pool).Get().(*Hierarchy); ok {
		return h
	}
	return NewHierarchy(cfg)
}

// ReleaseHierarchy resets h and returns it to the pool for its
// configuration. The caller must not use h afterwards.
func ReleaseHierarchy(h *Hierarchy) {
	if h == nil {
		return
	}
	h.Reset()
	p, _ := hierPool.LoadOrStore(hierKey(h.cfg), &sync.Pool{})
	p.(*sync.Pool).Put(h)
}

var stackDistPool = sync.Pool{New: func() any { return NewStackDist() }}

// AcquireStackDist returns an empty distance computer, reusing a released
// one's grown table and tree when available.
func AcquireStackDist() *StackDist {
	s := stackDistPool.Get().(*StackDist)
	s.Reset()
	return s
}

// ReleaseStackDist returns s to the pool. The caller must not use s
// afterwards.
func ReleaseStackDist(s *StackDist) {
	if s != nil {
		stackDistPool.Put(s)
	}
}
