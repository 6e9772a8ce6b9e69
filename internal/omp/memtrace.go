package omp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"barrierpoint/internal/cpu"
	"barrierpoint/internal/trace"
)

// memFields is the number of varints a MemTrace stores per (region,
// thread): the six cpu.MemEvents counts and the L2 prefetch fill misses.
const memFields = 7

// errMemTrace marks a malformed or mismatched memory trace.
var errMemTrace = errors.New("omp: malformed memory trace")

// MemTrace is the memory outcome of one counter-assembling run: for every
// (region, thread), in region-then-thread order, the six cpu.MemEvents
// counts and the L2 prefetch fill misses, stored as unsigned varints. The
// hierarchy sees only the program's touch stream, which depends on the
// program and the thread count and not on the ISA variant or the timing
// model, so two runs of the same program on the same hierarchy at the
// same thread count record the same trace. A run handed one (Config.Mem)
// assembles bit-identical counters from it without simulating the
// hierarchy.
type MemTrace struct {
	regions, threads int
	// warm records Config.WarmCaches: warming changes the outcome.
	warm bool
	data []byte
}

// appendMem appends one (region, thread) point to a trace under
// construction. The counts are whole numbers below 2^53, so the float64
// events convert to uint64 and back exactly.
func appendMem(b []byte, ev *cpu.MemEvents, l2Fill uint64) []byte {
	for _, v := range [memFields]uint64{
		uint64(ev.L2Hits), uint64(ev.L3Hits), uint64(ev.MemAccesses),
		uint64(ev.ChaseL2), uint64(ev.ChaseL3), uint64(ev.ChaseMem), l2Fill,
	} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// memReader replays a trace's points in recording order.
type memReader struct {
	data []byte
	err  error
}

// next decodes one (region, thread) point. A malformed varint sets err
// and yields zeros; the run reports err once its region loop ends.
func (r *memReader) next(ev *cpu.MemEvents) (l2Fill float64) {
	var v [memFields]float64
	for i := range v {
		x, n := binary.Uvarint(r.data)
		if n <= 0 {
			r.err, r.data = errMemTrace, nil
			*ev = cpu.MemEvents{}
			return 0
		}
		v[i], r.data = float64(x), r.data[n:]
	}
	*ev = cpu.MemEvents{L2Hits: v[0], L3Hits: v[1], MemAccesses: v[2], ChaseL2: v[3], ChaseL3: v[4], ChaseMem: v[5]}
	return v[6]
}

// fits reports why the trace cannot stand in for a run's memory
// simulation: a region or thread count or cache warming other than the
// run's, or a jittered run, whose partition (and so whose touch stream)
// no trace recorded.
func (m *MemTrace) fits(p *trace.Program, cfg *Config) error {
	switch {
	case cfg.Jitter != nil:
		return fmt.Errorf("%w: a jittered run cannot replay a trace", errMemTrace)
	case m.regions != len(p.Regions) || m.threads != cfg.Threads || m.warm != cfg.WarmCaches:
		return fmt.Errorf("%w: trace covers %d regions at %d threads (warm %v), the run has %d at %d (warm %v)",
			errMemTrace, m.regions, m.threads, m.warm, len(p.Regions), cfg.Threads, cfg.WarmCaches)
	}
	return nil
}

// MarshalBinary encodes the trace: its shape (region count, thread
// count, 1 if warmed) as unsigned varints, then the points.
func (m *MemTrace) MarshalBinary() ([]byte, error) {
	warm := uint64(0)
	if m.warm {
		warm = 1
	}
	b := binary.AppendUvarint(nil, uint64(m.regions))
	b = binary.AppendUvarint(b, uint64(m.threads))
	b = binary.AppendUvarint(b, warm)
	return append(b, m.data...), nil
}

// UnmarshalBinary decodes what MarshalBinary encoded. It rejects a
// varint that overflows 64 bits, a point count other than regions ×
// threads, and trailing bytes, and allocates no more than len(b).
func (m *MemTrace) UnmarshalBinary(b []byte) error {
	var shape [3]uint64
	for i := range shape {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("%w: bad shape header", errMemTrace)
		}
		shape[i], b = v, b[n:]
	}
	regions, threads, warm := shape[0], shape[1], shape[2]
	if warm > 1 {
		return fmt.Errorf("%w: warm flag %d", errMemTrace, warm)
	}
	// Every varint takes at least one byte, so a shape the payload cannot
	// hold is rejected before any multiplication can overflow.
	if threads == 0 || threads > uint64(len(b)) || regions > uint64(len(b))/(threads*memFields) {
		return fmt.Errorf("%w: %d regions at %d threads cannot fit in %d bytes", errMemTrace, regions, threads, len(b))
	}
	want := regions * threads * memFields
	rest := b
	for i := uint64(0); i < want; i++ {
		_, n := binary.Uvarint(rest)
		if n <= 0 {
			return fmt.Errorf("%w: point %d of %d truncated or overflows 64 bits", errMemTrace, i/memFields, want/memFields)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errMemTrace, len(rest))
	}
	m.regions, m.threads, m.warm, m.data = int(regions), int(threads), warm == 1, bytes.Clone(b)
	return nil
}
