package sched

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/core"
	"barrierpoint/internal/cpu"
	"barrierpoint/internal/golden"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/papi"
	"barrierpoint/internal/resultcache"
	"barrierpoint/internal/trace"
)

// traceSiblings returns the collections the shared-trace tests cover at
// each thread count: all four binary variants on their native machines,
// and both ARMv8 variants on the in-order ARM machine. The variants of
// an evaluated app share one program fingerprint, so the collections
// fall into pairs that share a trace (one hierarchy at one thread count).
func traceSiblings(threads []int) []core.CollectConfig {
	var cfgs []core.CollectConfig
	for _, th := range threads {
		for _, v := range isa.Variants() {
			cfgs = append(cfgs, core.CollectConfig{Variant: v, Threads: th, Reps: 3, Seed: 9})
		}
		for _, vect := range []bool{false, true} {
			cfgs = append(cfgs, core.CollectConfig{Variant: isa.Variant{ISA: isa.ARMv8(), Vectorised: vect},
				Threads: th, Reps: 3, Seed: 9, Machine: machine.ARMInOrder()})
		}
	}
	return cfgs
}

// traceLabel names a trace-sibling collection in its golden file.
func traceLabel(cfg core.CollectConfig) string {
	m := cfg.Machine
	if m == nil {
		m = machine.ForISA(cfg.Variant.ISA)
	}
	return fmt.Sprintf("%s %dt on %s", cfg.Variant, cfg.Threads, m.Name)
}

// oracleDigests returns the committed digests of the collections
// core.Collect computes without a cache for cfgs, read from
// testdata/TestSharedTraceCollectionsExact/<app>.sha256: one line per
// trace sibling at 2 and 8 threads, its label, then its digest. Under
// -update it first recomputes them all from that oracle.
func oracleDigests(t *testing.T, a *apps.App, cfgs []core.CollectConfig) []string {
	t.Helper()
	name := a.Name + ".sha256"
	if golden.Updating() {
		var b strings.Builder
		for _, cfg := range traceSiblings([]int{2, 8}) {
			col, err := core.Collect(a.Build, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %s\n", traceLabel(cfg), golden.Digest(col))
		}
		golden.Check(t, name, []byte(b.String()))
	}
	byLabel := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden.Read(t, name))), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			byLabel[line[:i]] = line[i+1:]
		}
	}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		if want[i] = byLabel[traceLabel(cfg)]; want[i] == "" {
			t.Fatalf("%s has no digest for %s (regenerate with -update)", name, traceLabel(cfg))
		}
	}
	return want
}

// TestSharedTraceCollectionsExact: collections that share a memory trace
// through one cache equal core.Collect without a cache, field for field
// (TruePerBP included), whether a sibling finds the trace finished (hit)
// or joins its simulation in flight. The oracle is the committed digests
// of core.Collect's collections, not a recomputation: it costs nothing
// per run, and it also catches a drift that hits both paths at once.
func TestSharedTraceCollectionsExact(t *testing.T) {
	// LULESH has the most regions (9,840), graph500 pointer-chases and
	// MCB's chased references reach L2 and L3.
	names, threads := []string{"LULESH", "graph500", "MCB"}, []int{2, 8}
	if testing.Short() {
		names, threads = []string{"graph500"}, []int{2}
	}
	for _, name := range names {
		a, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := traceSiblings(threads)
		want := oracleDigests(t, a, cfgs)
		traces := uint64(len(cfgs) / 2)

		t.Run(name+"/hit", func(t *testing.T) {
			cache := resultcache.New(0)
			for i, cfg := range cfgs {
				got, err := Collect(context.Background(), CollectRequest{App: a.Name, Build: a.Build, Config: cfg}, Options{Cache: cache})
				if err != nil {
					t.Fatal(err)
				}
				if golden.Digest(got) != want[i] {
					t.Errorf("%s: shared-trace collection differs from core.Collect's", traceLabel(cfg))
				}
			}
			// One miss per collection and per distinct trace; every second
			// sibling hits its pair's trace.
			st := cache.Stats()
			if st.Misses != uint64(len(cfgs))+traces || st.Hits != traces {
				t.Errorf("cache misses/hits = %d/%d, want %d/%d", st.Misses, st.Hits, uint64(len(cfgs))+traces, traces)
			}
		})

		t.Run(name+"/inflight", func(t *testing.T) {
			// Every build blocks until released. A collection builds its
			// program only inside its trace's simulation, so each pair's
			// first collection parks there while its sibling joins the
			// flight (a cache hit) without building anything. Counting
			// builds shows each collection running omp.Run once: the
			// first keeps the counters it simulated, the sibling replays.
			release := make(chan struct{})
			var builds atomic.Int64
			gated := func(th int, v isa.Variant) (*trace.Program, error) {
				<-release
				builds.Add(1)
				return a.Build(th, v)
			}
			cache := resultcache.New(0)
			exec := &LocalExecutor{Cache: cache}
			got := make([]*core.Collection, len(cfgs))
			errs := make([]error, len(cfgs))
			var wg sync.WaitGroup
			for i := range cfgs {
				fp, err := fingerprint(a.Name, a.Build, cfgs[i].Threads, cfgs[i].Variant)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var v any
					v, errs[i] = exec.ExecuteUnit(context.Background(), UnitRequest{
						Kind: UnitCollect, App: a.Name, FP: fp, Collect: &cfgs[i], Build: gated,
					})
					got[i], _ = v.(*core.Collection)
				}(i)
			}
			deadline := time.Now().Add(time.Minute)
			for cache.Stats().Hits < traces && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			joined := cache.Stats().Hits
			close(release)
			wg.Wait()
			if joined != traces {
				t.Fatalf("%d siblings joined a trace in flight, want %d", joined, traces)
			}
			for i, cfg := range cfgs {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if golden.Digest(got[i]) != want[i] {
					t.Errorf("%s: in-flight shared-trace collection differs from core.Collect's", traceLabel(cfg))
				}
			}
			if st := cache.Stats(); st.Misses != uint64(len(cfgs))+traces {
				t.Errorf("cache misses = %d, want one per collection and per trace (%d)", st.Misses, uint64(len(cfgs))+traces)
			}
			if n := builds.Load(); n != int64(len(cfgs)) {
				t.Errorf("%d program builds for %d collections, want one run each", n, len(cfgs))
			}
		})
	}
}

// TestTraceKey: the trace key splits on everything the memory simulation
// reads and on nothing else.
func TestTraceKey(t *testing.T) {
	arm := isa.Variant{ISA: isa.ARMv8()}
	base := core.CollectConfig{Variant: arm, Threads: 8, Reps: 20, Seed: 1}
	key := func(fp string, cfg core.CollectConfig) resultcache.Key {
		t.Helper()
		k, err := traceKey(fp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	want := key("fp", base)
	override := func(edit func(m *machine.Machine)) core.CollectConfig {
		cfg := base
		cfg.Machine = machine.APMXGene()
		edit(cfg.Machine)
		return cfg
	}
	with := func(edit func(c *core.CollectConfig)) core.CollectConfig {
		cfg := base
		edit(&cfg)
		return cfg
	}

	splits := []struct {
		name string
		fp   string
		cfg  core.CollectConfig
	}{
		{"fingerprint", "other", base},
		{"threads", "fp", with(func(c *core.CollectConfig) { c.Threads = 4 })},
		{"ISA picks the Intel machine", "fp", with(func(c *core.CollectConfig) { c.Variant.ISA = isa.X8664() })},
		{"in-order ARM machine", "fp", with(func(c *core.CollectConfig) { c.Machine = machine.ARMInOrder() })},
		{"L1 bytes", "fp", override(func(m *machine.Machine) { m.L1Bytes *= 2 })},
		{"L1 ways", "fp", override(func(m *machine.Machine) { m.L1Ways *= 2 })},
		{"L2 bytes", "fp", override(func(m *machine.Machine) { m.L2Bytes *= 2 })},
		{"L2 ways", "fp", override(func(m *machine.Machine) { m.L2Ways *= 2 })},
		{"L3 bytes", "fp", override(func(m *machine.Machine) { m.L3Bytes *= 2 })},
		{"L3 ways", "fp", override(func(m *machine.Machine) { m.L3Ways *= 2 })},
		{"L2 scope", "fp", override(func(m *machine.Machine) { m.L2Scope = 4 })},
		{"SMT topology", "fp", override(func(m *machine.Machine) { m.PhysicalCores, m.ThreadsPerCore = 4, 2 })},
		{"prefetch degree", "fp", override(func(m *machine.Machine) { m.PrefetchDegree = 2 })},
		{"prefetch trigger", "fp", override(func(m *machine.Machine) { m.PrefetchStream = false })},
	}
	seen := map[resultcache.Key]string{want: "base"}
	for _, c := range splits {
		k := key(c.fp, c.cfg)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: trace key equals %s's", c.name, prev)
		}
		seen[k] = c.name
	}

	same := []struct {
		name string
		cfg  core.CollectConfig
	}{
		{"vectorised", with(func(c *core.CollectConfig) { c.Variant.Vectorised = true })},
		{"reps", with(func(c *core.CollectConfig) { c.Reps = 3 })},
		{"seed", with(func(c *core.CollectConfig) { c.Seed = 2 })},
		{"overhead", with(func(c *core.CollectConfig) { c.Overhead = &papi.Overhead{} })},
		{"multiplex groups", with(func(c *core.CollectConfig) { c.MultiplexGroups = 4 })},
		{"native machine given explicitly", override(func(*machine.Machine) {})},
		{"timing model", override(func(m *machine.Machine) { m.CPU = cpu.ARMInOrder() })},
		{"noise and name", override(func(m *machine.Machine) { m.Name, m.Noise = "renamed", machine.NoiseProfile{} })},
	}
	for _, c := range same {
		if key("fp", c.cfg) != want {
			t.Errorf("%s splits the trace key", c.name)
		}
	}

	if _, err := traceKey("fp", with(func(c *core.CollectConfig) { c.Threads = 64 })); err == nil {
		t.Error("a thread count the machine cannot map must key no trace")
	}
}
