package omp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"barrierpoint/internal/isa"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/xrand"
)

// recordTrace runs buildProgram with warmed caches and returns the
// result and the trace it recorded.
func recordTrace(t testing.TB, cfg Config) (*RunResult, *MemTrace) {
	t.Helper()
	return recordTraceOf(t, buildProgram(), cfg)
}

func recordTraceOf(t testing.TB, p *trace.Program, cfg Config) (*RunResult, *MemTrace) {
	t.Helper()
	cfg.WarmCaches = true
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem == nil {
		t.Fatal("a simulating run returned no memory trace")
	}
	return res, res.Mem
}

// memProgram returns a program whose references are satisfied at every
// level of the Intel hierarchy, chased and not, so every field of its
// trace is non-zero somewhere: the evaluated apps, run on warmed
// caches, never chase a reference out to memory.
func memProgram() *trace.Program {
	p := trace.NewProgram("omp-mem")
	var mix isa.OpMix
	mix[isa.IntOp], mix[isa.Load], mix[isa.Branch] = 2, 1, 1
	for _, d := range []struct {
		lines int64
		trips int64
	}{
		{2048, 8000},     // L2-sized
		{32768, 40000},   // L3-sized
		{1 << 19, 20000}, // four times the L3
	} {
		data := p.AddData(fmt.Sprintf("d%d", d.lines), d.lines)
		for _, pat := range []trace.Pattern{trace.Sequential, trace.Random, trace.PointerChase} {
			b := p.AddBlock(trace.Block{Name: fmt.Sprintf("%v-%d", pat, d.lines), Mix: mix,
				LinesPerIter: 1, Pattern: pat, Data: data})
			p.AddRegion(b.Name, trace.BlockExec{Block: b, Trips: d.trips})
		}
	}
	p.Finalise()
	return p
}

// TestMemTraceReplayExact: replaying a trace gives the counters of
// simulating, bit for bit, for every variant of the program on the
// hierarchy the trace was recorded on — the timing model and the
// vectorisation change, the memory outcome does not — with every trace
// field exercised.
func TestMemTraceReplayExact(t *testing.T) {
	_, mem := recordTraceOf(t, memProgram(), x86Config(4))
	var nonZero [memFields]bool
	for i, b := 0, mem.data; len(b) > 0; i++ {
		v, n := binary.Uvarint(b)
		nonZero[i%memFields] = nonZero[i%memFields] || v > 0
		b = b[n:]
	}
	if nonZero != [memFields]bool{true, true, true, true, true, true, true} {
		t.Fatalf("trace fields non-zero: %v, want all (the test program misses a level)", nonZero)
	}
	for _, vect := range []bool{false, true} {
		cfg := x86Config(4)
		cfg.Variant.Vectorised = vect
		want, _ := recordTraceOf(t, memProgram(), cfg)
		cfg.WarmCaches, cfg.Mem = true, mem
		touched := false
		cfg.Hooks.Touch = func(int, trace.Touch) { touched = true }
		got, err := Run(memProgram(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if touched {
			t.Error("a replayed run emitted touches")
		}
		if got.Mem != nil {
			t.Error("a replayed run returned a trace of its own")
		}
		if !reflect.DeepEqual(got.Regions, want.Regions) {
			t.Errorf("vectorised=%v: replayed counters differ from simulated ones", vect)
		}
	}
}

// TestMemTraceIdenticalAcrossVariants: the variants of one program record
// the same trace on one hierarchy.
func TestMemTraceIdenticalAcrossVariants(t *testing.T) {
	_, scalar := recordTrace(t, x86Config(8))
	cfg := x86Config(8)
	cfg.Variant.Vectorised = true
	_, vect := recordTrace(t, cfg)
	if !reflect.DeepEqual(scalar, vect) {
		t.Error("vectorisation changed the memory trace")
	}
}

// TestSkipCountersEmitsTouchesWithoutHierarchy: an instrumentation-only
// run delivers the touch stream of a simulating run to its hook.
func TestSkipCountersEmitsTouchesWithoutHierarchy(t *testing.T) {
	collect := func(skip bool) []trace.Touch {
		var got []trace.Touch
		cfg := x86Config(2)
		cfg.WarmCaches, cfg.SkipCounters = true, skip
		cfg.Hooks.Touch = func(th int, tc trace.Touch) {
			tc.Line = tc.Line<<4 | uint64(th)
			got = append(got, tc)
		}
		res, err := Run(buildProgram(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if skip && (res.Mem != nil || len(res.Regions) != 0) {
			t.Error("a SkipCounters run returned counters or a trace")
		}
		return got
	}
	if want, got := collect(false), collect(true); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("SkipCounters touch stream has %d touches, the simulating run %d (or they differ)", len(got), len(want))
	}
}

// TestMemTraceRejectsMismatchedRuns: a trace replays only into a run of
// its own shape.
func TestMemTraceRejectsMismatchedRuns(t *testing.T) {
	_, mem := recordTrace(t, x86Config(2))
	short := trace.NewProgram("short")
	d := short.AddData("d", 64)
	blk := short.AddBlock(trace.Block{Name: "b", Mix: isa.OpMix{isa.Load: 1}, LinesPerIter: 1, Pattern: trace.Sequential, Data: d})
	short.AddRegion("only", trace.BlockExec{Block: blk, Trips: 100})
	short.Finalise()

	cases := []struct {
		name string
		prog *trace.Program
		edit func(*Config)
	}{
		{"threads", buildProgram(), func(c *Config) { c.Threads = 4 }},
		{"regions", short, func(*Config) {}},
		{"cold caches", buildProgram(), func(c *Config) { c.WarmCaches = false }},
		{"jittered", buildProgram(), func(c *Config) { c.Jitter = xrand.New(1) }},
		{"SkipMemory", buildProgram(), func(c *Config) { c.SkipMemory = true }},
		{"SkipCounters", buildProgram(), func(c *Config) { c.SkipCounters = true }},
	}
	for _, c := range cases {
		cfg := x86Config(2)
		cfg.WarmCaches, cfg.Mem = true, mem
		c.edit(&cfg)
		if _, err := Run(c.prog, cfg); !errors.Is(err, errMemTrace) {
			t.Errorf("%s: Run = %v, want a memory-trace error", c.name, err)
		}
	}
}

// TestMemTraceBinaryRoundTrip: the encoding round-trips, and each kind
// of malformed input is an error.
func TestMemTraceBinaryRoundTrip(t *testing.T) {
	_, mem := recordTrace(t, x86Config(2))
	enc, err := mem.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var dec MemTrace
	if err := dec.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&dec, mem) {
		t.Error("decoded trace differs from the encoded one")
	}

	overflow := append([]byte(nil), enc[:3]...)
	overflow = append(overflow, bytes.Repeat([]byte{0xff}, 10)...)
	overflow = append(overflow, 0x01)
	bad := map[string][]byte{
		"empty":            nil,
		"truncated":        enc[:len(enc)-1],
		"trailing byte":    append(append([]byte(nil), enc...), 0),
		"varint overflow":  overflow,
		"warm flag 2":      append([]byte{enc[0], enc[1], 2}, enc[3:]...),
		"zero threads":     append([]byte{enc[0], 0, enc[2]}, enc[3:]...),
		"regions too many": append([]byte{enc[0] + 1, enc[1], enc[2]}, enc[3:]...),
	}
	for name, b := range bad {
		if err := new(MemTrace).UnmarshalBinary(b); !errors.Is(err, errMemTrace) {
			t.Errorf("%s: UnmarshalBinary = %v, want a memory-trace error", name, err)
		}
	}
}

// FuzzMemTrace decodes arbitrary bytes as a trace and replays whatever
// decodes into buildProgram at 2 threads: malformed input and shapes
// that do not match the run must be errors, never panics, and decoding
// must allocate no more than its input.
func FuzzMemTrace(f *testing.F) {
	_, mem := recordTrace(f, x86Config(2))
	enc, err := mem.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(append(append([]byte(nil), enc...), 0x80))
	f.Add([]byte{3, 2, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02})
	f.Fuzz(func(t *testing.T, b []byte) {
		var m MemTrace
		if err := m.UnmarshalBinary(b); err != nil {
			return
		}
		// The decoder keeps a copy of its input (up to the allocator's
		// size-class rounding), nothing sized by the shape it claims.
		if len(m.data) > len(b) || cap(m.data) > 2*len(b)+64 {
			t.Fatalf("decoding %d bytes kept %d (capacity %d)", len(b), len(m.data), cap(m.data))
		}
		again, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var m2 MemTrace
		if err := m2.UnmarshalBinary(again); err != nil || !reflect.DeepEqual(&m2, &m) {
			t.Fatalf("re-encoded trace does not round-trip: %v", err)
		}
		cfg := x86Config(2)
		cfg.WarmCaches, cfg.Mem = m.warm, &m
		res, err := Run(buildProgram(), cfg)
		if fits := m.regions == 3 && m.threads == 2; fits != (err == nil) {
			t.Fatalf("trace of %d regions at %d threads: Run error %v", m.regions, m.threads, err)
		}
		if err == nil && len(res.Regions) != 3 {
			t.Fatalf("replay produced %d regions", len(res.Regions))
		}
		cfg.Jitter = xrand.New(1)
		if _, err := Run(buildProgram(), cfg); err == nil {
			t.Fatal("a jittered run replayed a trace")
		}
	})
}
