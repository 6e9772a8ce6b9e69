package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/omp"
	"barrierpoint/internal/papi"
	"barrierpoint/internal/pin"
	"barrierpoint/internal/sched"
	"barrierpoint/internal/sigvec"
	"barrierpoint/internal/simpoint"
	"barrierpoint/internal/xrand"
)

// clock accumulates the CPU time spent in one layer across goroutines.
type clock struct{ ns atomic.Int64 }

func (c *clock) add(d time.Duration) { c.ns.Add(int64(d)) }
func (c *clock) seconds() float64    { return time.Duration(c.ns.Load()).Seconds() }

// replay is the traced run. It re-executes a workload's studies and
// collections step by step through each layer's public functions, as
// core.DiscoverBaseline, core.DiscoverJittered, core.Collect and
// core.EvaluateSet compose them, and times every call in CPU time of the
// calling thread, so time the thread spent descheduled (to the garbage
// collector's workers, say) is left to other.self_s. A layer's self
// time is its call's duration minus the layers it calls into; to split
// those it also times the same runs with the lower layer alone (omp.Run
// without memory, pin.Stream without LDVs). Those extra runs are not
// attributed to any layer and show up only in the tracing overhead.
// Discovery runs and collections are memoised by configuration, the way
// the sweep planner dedupes units.
type replay struct {
	simpoint, mem, pin, pinLDV, omp, papi, sigvec, validate clock
	points, pinPoints                                       atomic.Int64

	mu       sync.Mutex
	l1d, l2d float64 // exact miss counts of the collection runs
	discs    map[string]discovered
	cols     map[string]*core.Collection
}

// discovered is one discovery run's outcome.
type discovered struct {
	set  core.BarrierPointSet
	base *ldvRows
}

// ldvRows is the canonical run's projected LDV half of every barrier
// point, which the jittered runs reuse.
type ldvRows struct {
	n, dim int
	rows   []float64
}

func (b *ldvRows) row(i int) []float64 { return b.rows[i*b.dim : (i+1)*b.dim] }

// threadCPU returns the CPU time of the calling OS thread. Callers lock
// their goroutine to its thread around what they measure. The signature
// callback, a few microseconds per barrier point, is timed by the wall
// clock instead: it is too short to be descheduled and too frequent for
// a system call.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func newReplay() *replay {
	return &replay{discs: map[string]discovered{}, cols: map[string]*core.Collection{}}
}

// fill writes the replay's layer metrics into m. cpu is the untraced
// pass's CPU time; whatever of it the layers do not account for is
// other.self_s.
func (r *replay) fill(m map[string]float64, cpu time.Duration) {
	layers := map[string]*clock{
		"simpoint.self_s": &r.simpoint, "mem.self_s": &r.mem, "pin.self_s": &r.pin,
		"omp.self_s": &r.omp, "papi.self_s": &r.papi, "sigvec.self_s": &r.sigvec,
		"core.validate_s": &r.validate,
	}
	other := cpu.Seconds()
	for name, c := range layers {
		m[name] = c.seconds()
		other -= c.seconds()
	}
	m["other.self_s"] = other
	m["pin.ldv_s"] = r.pinLDV.seconds()
	m["simpoint.points"] = float64(r.points.Load())
	m["pin.points"] = float64(r.pinPoints.Load())
	r.mu.Lock()
	m["mem.l1d_misses"], m["mem.l2d_misses"] = r.l1d, r.l2d
	r.mu.Unlock()
}

// study replays one study in sched.Run's stages, unitWorkers calls at a
// time: the canonical discovery run and both collections, then the
// jittered runs, then the per-set validations.
func (r *replay) study(ctx context.Context, app string, build core.ProgramBuilder, cfg core.StudyConfig) (*core.StudyResult, error) {
	cfg = cfg.WithDefaults()
	disc := cfg.Discovery()
	colCfgs := cfg.Collections()
	sets := make([]core.BarrierPointSet, cfg.Runs)
	var cols [2]*core.Collection
	var base *ldvRows
	stage1 := []func() error{
		func() error {
			d, err := r.discover(app, build, disc, 0, nil)
			sets[0], base = d.set, d.base
			return err
		},
		func() (err error) { cols[0], err = r.collectOnce(app, build, colCfgs[0]); return err },
		func() (err error) { cols[1], err = r.collectOnce(app, build, colCfgs[1]); return err },
	}
	if err := sched.ForEach(ctx, len(stage1), unitWorkers, func(_ context.Context, i int) error {
		return stage1[i]()
	}); err != nil {
		return nil, err
	}
	if err := sched.ForEach(ctx, cfg.Runs-1, unitWorkers, func(_ context.Context, i int) error {
		d, err := r.discover(app, build, disc, i+1, base)
		sets[i+1] = d.set
		return err
	}); err != nil {
		return nil, err
	}
	evals := make([]core.SetEvaluation, cfg.Runs)
	if err := sched.ForEach(ctx, cfg.Runs, unitWorkers, func(_ context.Context, i int) error {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		start := threadCPU()
		var err error
		evals[i], err = core.EvaluateSet(app, i, &sets[i], cols[0], cols[1])
		r.validate.add(threadCPU() - start)
		return err
	}); err != nil {
		return nil, err
	}
	return core.AssembleStudy(app, cfg, evals, cols[0], cols[1]), nil
}

// discover returns discovery run `run`, replaying it on first use. Like
// the scheduler's keys, the memo ignores cfg.Runs: a run's outcome does
// not depend on how many sibling runs were asked for.
func (r *replay) discover(app string, build core.ProgramBuilder, cfg core.DiscoveryConfig, run int, base *ldvRows) (discovered, error) {
	cfg = cfg.WithDefaults()
	cfg.Runs = 0
	key := fmt.Sprintf("%s %#v run=%d", app, cfg, run)
	r.mu.Lock()
	d, ok := r.discs[key]
	r.mu.Unlock()
	if ok {
		return d, nil
	}
	set, newBase, err := r.discoverRun(build, cfg, run, base)
	if err != nil {
		return discovered{}, err
	}
	d = discovered{set: set, base: newBase}
	r.mu.Lock()
	r.discs[key] = d
	r.mu.Unlock()
	return d, nil
}

// discoverRun replays one instrumented discovery run and its clustering.
// Run 0 is the canonical run and returns the LDV rows runs ≥ 1 reuse.
func (r *replay) discoverRun(build core.ProgramBuilder, cfg core.DiscoveryConfig, run int, base *ldvRows) (core.BarrierPointSet, *ldvRows, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	variant := isa.Variant{ISA: isa.X8664(), Vectorised: cfg.Vectorised}
	prog, err := build(cfg.Threads, variant)
	if err != nil {
		return core.BarrierPointSet{}, nil, err
	}
	opts := sigvec.Options{Dim: cfg.SigDim, UseBBV: !cfg.DisableBBV, UseLDV: !cfg.DisableLDV, Seed: cfg.Seed}
	runCfg := omp.Config{Machine: machine.ForISA(variant.ISA), Variant: variant, Threads: cfg.Threads, WarmCaches: true}
	pinOpts := pin.Options{}
	jitter := func() *xrand.Rand { return nil }
	if run > 0 {
		jitter = func() *xrand.Rand { return xrand.Derive(cfg.Seed, fmt.Sprintf("discovery-jitter-%d", run)) }
		runCfg.JitterFrac = 0.005
		runCfg.SkipMemory = true
		pinOpts.SkipLDV = true
	}
	runCfg.Jitter = jitter()

	builder := sigvec.NewBuilder(opts)
	dims := builder.Dims()
	ldvOff, ldvDim := 0, 0
	if opts.UseLDV {
		ldvDim = opts.Dim
		if opts.UseBBV {
			ldvOff = opts.Dim
		}
	}
	var newBase *ldvRows
	if run == 0 {
		newBase = &ldvRows{dim: ldvDim}
	}
	// Every region execution is one barrier point, so one block holds all
	// signature vectors and the timed callback allocates nothing.
	block := make([]float64, len(prog.Regions)*dims)
	points := make([]simpoint.Point, 0, len(prog.Regions))
	weights := make([]float64, 0, len(prog.Regions))
	var sig time.Duration
	start := threadCPU()
	err = pin.Stream(prog, runCfg, pinOpts, func(s pin.Signature) {
		t0 := time.Now()
		var vec []float64
		if len(block) >= dims {
			vec, block = block[:dims:dims], block[dims:]
		} else {
			vec = make([]float64, dims)
		}
		switch {
		case run == 0:
			builder.BuildSparseInto(vec, s.BBVSparse.Idx, s.BBVSparse.Val, s.LDVSparse.Idx, s.LDVSparse.Val)
			newBase.rows = append(newBase.rows, vec[ldvOff:ldvOff+ldvDim]...)
			newBase.n++
		case opts.UseLDV:
			builder.BuildSparseInto(vec, s.BBVSparse.Idx, s.BBVSparse.Val, nil, nil)
			if s.Index < base.n {
				copy(vec[ldvOff:ldvOff+ldvDim], base.row(s.Index))
			}
		default:
			builder.BuildSparseInto(vec, s.BBVSparse.Idx, s.BBVSparse.Val, nil, nil)
		}
		points = append(points, simpoint.Point{Vec: vec, Weight: s.Instructions})
		weights = append(weights, s.Instructions)
		sig += time.Since(t0)
	})
	stream := threadCPU() - start
	if err != nil {
		return core.BarrierPointSet{}, nil, err
	}

	// The layers under pin: the same run with no instrumentation and no
	// memory, and for the canonical run also with memory and without LDVs.
	bare := runCfg
	bare.SkipMemory, bare.SkipCounters, bare.Jitter = true, true, jitter()
	start = threadCPU()
	if _, err := omp.Run(prog, bare); err != nil {
		return core.BarrierPointSet{}, nil, err
	}
	ompTime := threadCPU() - start
	under := ompTime
	if run == 0 {
		withMem := runCfg
		withMem.SkipCounters = true
		start = threadCPU()
		if _, err := omp.Run(prog, withMem); err != nil {
			return core.BarrierPointSet{}, nil, err
		}
		under = threadCPU() - start
		start = threadCPU()
		if err := pin.Stream(prog, runCfg, pin.Options{SkipLDV: true}, func(pin.Signature) {}); err != nil {
			return core.BarrierPointSet{}, nil, err
		}
		r.pinLDV.add(stream - sig - (threadCPU() - start))
		r.mem.add(under - ompTime)
	}
	r.omp.add(ompTime)
	r.sigvec.add(sig)
	r.pin.add(stream - sig - under)
	r.pinPoints.Add(int64(len(points)))

	spCfg := simpoint.DefaultConfig(xrand.Derive(cfg.Seed, fmt.Sprintf("kmeans-%d", run)).Uint64())
	spCfg.MaxK = cfg.MaxK
	if half := (len(points) + 1) / 2; spCfg.MaxK > half {
		spCfg.MaxK = half
	}
	start = threadCPU()
	res, err := simpoint.Cluster(points, spCfg)
	r.simpoint.add(threadCPU() - start)
	if err != nil {
		return core.BarrierPointSet{}, nil, err
	}
	r.points.Add(int64(len(points)))

	set := core.BarrierPointSet{Run: run, Threads: cfg.Threads, Vectorised: cfg.Vectorised, TotalPoints: len(points)}
	for _, w := range weights {
		set.TotalInstructions += w
	}
	for c, rep := range res.Representatives {
		if rep >= 0 {
			set.Selected = append(set.Selected, core.SelectedPoint{
				Index: rep, Multiplier: res.Multipliers[c], Instructions: weights[rep],
			})
		}
	}
	sort.Slice(set.Selected, func(a, b int) bool { return set.Selected[a].Index < set.Selected[b].Index })
	return set, newBase, nil
}

// collectOnce returns the collection for cfg, replaying it on first use.
func (r *replay) collectOnce(app string, build core.ProgramBuilder, cfg core.CollectConfig) (*core.Collection, error) {
	key := fmt.Sprintf("%s %s t=%d r=%d s=%d", app, cfg.Variant, cfg.Threads, cfg.WithDefaults().Reps, cfg.Seed)
	r.mu.Lock()
	col, ok := r.cols[key]
	r.mu.Unlock()
	if ok {
		return col, nil
	}
	col, err := r.collect(build, cfg)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.cols[key] = col
	r.mu.Unlock()
	return col, nil
}

// collect replays one native counter collection: the native run, timed
// with and without its memory hierarchy, then PAPI sampling.
func (r *replay) collect(build core.ProgramBuilder, cfg core.CollectConfig) (*core.Collection, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cfg = cfg.WithDefaults()
	mach := cfg.Machine
	if mach == nil {
		mach = machine.ForISA(cfg.Variant.ISA)
	}
	prog, err := build(cfg.Threads, cfg.Variant)
	if err != nil {
		return nil, err
	}
	runCfg := omp.Config{Machine: mach, Variant: cfg.Variant, Threads: cfg.Threads, WarmCaches: true}
	start := threadCPU()
	res, err := omp.Run(prog, runCfg)
	if err != nil {
		return nil, err
	}
	full := threadCPU() - start
	bare := runCfg
	bare.SkipMemory = true
	start = threadCPU()
	if _, err := omp.Run(prog, bare); err != nil {
		return nil, err
	}
	ompTime := threadCPU() - start
	r.omp.add(ompTime)
	r.mem.add(full - ompTime)

	start = threadCPU()
	ov := papi.DefaultOverhead()
	if cfg.Overhead != nil {
		ov = *cfg.Overhead
	}
	rng := xrand.Derive(cfg.Seed, "papi-noise-"+cfg.Variant.String())
	col := &core.Collection{Variant: cfg.Variant, Machine: mach, Threads: cfg.Threads, Reps: cfg.Reps}
	nBP := len(res.Regions)
	col.PerBP = make([][]machine.Counters, nBP)
	col.PerBPStd = make([][]machine.Counters, nBP)
	col.TruePerBP = make([][]machine.Counters, nBP)
	sample := func(truth machine.Counters) (mean, std machine.Counters) {
		m := papi.CollectMultiplexed(papi.ApplyOverhead(truth, papi.ReadsPerBarrierPoint, ov),
			mach.Noise, rng, cfg.Reps, cfg.MultiplexGroups)
		for k := range mean {
			mean[k], std[k] = m[k].Mean, m[k].StdDev
		}
		return mean, std
	}
	for i, reg := range res.Regions {
		col.PerBP[i] = make([]machine.Counters, cfg.Threads)
		col.PerBPStd[i] = make([]machine.Counters, cfg.Threads)
		col.TruePerBP[i] = make([]machine.Counters, cfg.Threads)
		for t := 0; t < cfg.Threads; t++ {
			col.TruePerBP[i][t] = reg.PerThread[t]
			col.PerBP[i][t], col.PerBPStd[i][t] = sample(reg.PerThread[t])
		}
	}
	col.Full = make([]machine.Counters, cfg.Threads)
	col.FullStd = make([]machine.Counters, cfg.Threads)
	col.TrueFull = res.TotalPerThread()
	for t := 0; t < cfg.Threads; t++ {
		col.Full[t], col.FullStd[t] = sample(col.TrueFull[t])
	}
	r.papi.add(threadCPU() - start)

	r.mu.Lock()
	for _, c := range col.TrueFull {
		r.l1d += c[machine.L1DMisses]
		r.l2d += c[machine.L2DMisses]
	}
	r.mu.Unlock()
	return col, nil
}
