package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"time"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/resultcache"
	"barrierpoint/internal/sched"
)

// unitWorkers is how many units the benchmark keeps in flight: the
// two CPUs of the machine the benchmark was sized on. The paper's 8
// threads are simulated threads, not host threads.
const unitWorkers = 2

// workload is one named set of inputs the benchmark drives.
type workload interface {
	// setup prepares what every pass needs: built programs and, for the
	// fleet, running servers.
	setup() error
	// pass runs the timed phase once against empty result caches and
	// checks its outputs, one tally operation per study, collection or
	// request.
	pass(ctx context.Context, t *tally) (*pass, error)
	// reset readies fresh, empty state for another pass.
	reset() error
	// layers runs the traced replay of a finished pass and returns every
	// per-layer metric.
	layers(ctx context.Context, p *pass, t *tally) (map[string]float64, error)
	checker() *checker
	close()
}

// pass is what one timed pass leaves behind for the traced replay.
type pass struct {
	wall, cpu time.Duration
	studies   []*core.StudyResult // paper-suite, in app order
	cols      []*core.Collection  // collect-variants, in request order
	sched     scrape              // the scheduler's metrics after the pass
	fleet     *fleetPass
}

var workloads = map[string]func(config) workload{
	"paper-suite":      newPaperSuite,
	"collect-variants": newCollectVariants,
	"fleet-sweep":      newFleetSweep,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// layerNames lists every per-layer metric, in BENCHMARK.json order. A
// layer a workload does not exercise reports 0.
var layerNames = []string{
	"simpoint.self_s", "simpoint.points",
	"mem.self_s", "mem.l1d_misses", "mem.l2d_misses",
	"pin.self_s", "pin.ldv_s", "pin.points",
	"omp.self_s", "papi.self_s", "sigvec.self_s", "core.validate_s", "other.self_s",
	"sched.unit_s.discover-baseline", "sched.unit_s.discover-jittered",
	"sched.unit_s.collect", "sched.unit_s.validate", "sched.idle_frac",
	"sched.plan_s", "sched.units_planned", "sched.units_deduped", "sched.units_subsumed",
	"remote.dispatch_s", "remote.transfer_s", "remote.retries", "remote.fallbacks", "remote.worker_skew",
	"worker.decode_s", "worker.compute_s", "worker.encode_s", "worker.recompute_ratio",
	"service.queue_wait_s", "service.http_s", "service.cached_report_ms_p50", "resultcache.hit_ratio",
	"core.cyc_err_pct_max", "core.instr_err_pct_max", "core.speedup_x_max",
	"check.ops_failed_frac", "bench.trace_overhead_s",
}

// newLayers returns every per-layer metric at 0.
func newLayers() map[string]float64 {
	m := make(map[string]float64, len(layerNames))
	for _, n := range layerNames {
		m[n] = 0
	}
	return m
}

// schedLayers fills the sched.* unit metrics from a scrape of the
// scheduler's registry: busy seconds per unit kind, and the share of
// unitWorkers × wall the units left idle.
func schedLayers(m map[string]float64, s scrape, wall time.Duration) {
	busy := 0.0
	for kind, v := range s.byLabel("bp_sched_unit_seconds_sum", "kind") {
		m["sched.unit_s."+kind] = v
		busy += v
	}
	m["sched.idle_frac"] = 1 - busy/(wall.Seconds()*unitWorkers)
}

// scrapeRegistry renders a registry the way GET /metrics serves it.
func scrapeRegistry(reg *obs.Registry) scrape {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil
	}
	return parseScrape(buf.String())
}

// lookupApps resolves application names through the registry.
func lookupApps(names []string) []*apps.App {
	out := make([]*apps.App, len(names))
	for i, n := range names {
		a, err := apps.ByName(n)
		if err != nil {
			panic(err) // names are this file's constants
		}
		out[i] = a
	}
	return out
}

// buildPrograms builds (and so caches process-wide) every program the
// given studies need: the x86_64 and ARMv8 variants at their thread count.
func buildPrograms(as []*apps.App, threads []int, vectorised bool) error {
	for _, a := range as {
		for _, th := range threads {
			for _, v := range (core.StudyConfig{Threads: th, Vectorised: vectorised}).Collections() {
				if _, err := a.Build(th, v.Variant); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// paperSuite runs one cold study per evaluated application at the
// paper's configuration through sched.Run, one study at a time.
type paperSuite struct {
	apps  []*apps.App
	study core.StudyConfig
	bands bool // check the headline error band (full size only)
	chk   *checker
}

func newPaperSuite(cfg config) workload {
	w := &paperSuite{
		study: core.StudyConfig{Threads: 8, Runs: 10, Reps: 20, Seed: cfg.seed},
		bands: !cfg.tiny,
		chk:   newChecker(cfg),
	}
	names := []string{"AMGMk", "CoMD", "graph500", "HPCG", "LULESH", "MCB", "miniFE"}
	if cfg.tiny {
		names = []string{"MCB", "HPCG"}
		w.study = core.StudyConfig{Threads: 2, Runs: 2, Reps: 3, Seed: cfg.seed}
	}
	w.apps = lookupApps(names)
	return w
}

func (w *paperSuite) setup() error {
	return buildPrograms(w.apps, []int{w.study.Threads}, w.study.Vectorised)
}

func (w *paperSuite) pass(ctx context.Context, t *tally) (*pass, error) {
	reg := obs.NewRegistry()
	opts := sched.Options{Workers: unitWorkers, Cache: resultcache.New(0), Metrics: sched.NewMetrics(reg)}
	p := &pass{studies: make([]*core.StudyResult, len(w.apps))}
	errs := make([]error, len(w.apps))
	cpu0, start := cpuTime(), time.Now()
	for i, a := range w.apps {
		p.studies[i], errs[i] = sched.Run(ctx, sched.StudyRequest{App: a.Name, Build: a.Build, Config: w.study}, opts)
	}
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	p.sched = scrapeRegistry(reg)
	for i, a := range w.apps {
		res := p.studies[i]
		ok := errs[i] == nil && w.chk.match("paper-suite/"+a.Name, studyJSON(res)) && (!w.bands || inBands(res))
		t.op(ok, fmt.Sprintf("paper-suite study %s (err %v)", a.Name, errs[i]))
	}
	return p, nil
}

func (w *paperSuite) reset() error { return nil }

func (w *paperSuite) layers(ctx context.Context, p *pass, t *tally) (map[string]float64, error) {
	rp := newReplay()
	start := time.Now()
	for i, a := range w.apps {
		res, err := rp.study(ctx, a.Name, a.Build, w.study)
		t.op(err == nil && p.studies[i] != nil && sameSelections(res, p.studies[i]),
			fmt.Sprintf("traced replay of %s selects what the study selected (err %v)", a.Name, err))
	}
	traced := time.Since(start)
	m := newLayers()
	rp.fill(m, p.cpu)
	schedLayers(m, p.sched, p.wall)
	m["core.cyc_err_pct_max"], m["core.instr_err_pct_max"], m["core.speedup_x_max"] = headline(p.studies)
	m["bench.trace_overhead_s"] = (traced - p.wall).Seconds()
	return m, nil
}

func (w *paperSuite) checker() *checker { return w.chk }
func (w *paperSuite) close()            {}

// sameSelections reports whether two studies selected the same barrier
// points, with the same multipliers, in every discovery run.
func sameSelections(a, b *core.StudyResult) bool {
	if len(a.Evals) != len(b.Evals) {
		return false
	}
	for i := range a.Evals {
		if !reflect.DeepEqual(a.Evals[i].Set, b.Evals[i].Set) {
			return false
		}
	}
	return true
}

// collectVariants runs Step 3 alone: native counter collection of all
// four binary variants of the evaluated applications at two thread
// counts, unitWorkers sched.Collect calls at a time.
type collectVariants struct {
	reqs []sched.CollectRequest
	chk  *checker
}

func newCollectVariants(cfg config) workload {
	names := []string{"AMGMk", "CoMD", "graph500", "HPCG", "LULESH", "MCB", "miniFE"}
	threads, reps := []int{4, 8}, 20
	if cfg.tiny {
		names, threads, reps = []string{"MCB"}, []int{2}, 3
	}
	w := &collectVariants{chk: newChecker(cfg)}
	for _, a := range lookupApps(names) {
		for _, th := range threads {
			for _, v := range isa.Variants() {
				w.reqs = append(w.reqs, sched.CollectRequest{App: a.Name, Build: a.Build,
					Config: core.CollectConfig{Variant: v, Threads: th, Reps: reps, Seed: cfg.seed}})
			}
		}
	}
	return w
}

func (w *collectVariants) setup() error {
	for _, r := range w.reqs {
		if _, err := r.Build(r.Config.Threads, r.Config.Variant); err != nil {
			return err
		}
	}
	return nil
}

// key names one collection request in the reference digests.
func (w *collectVariants) key(i int) string {
	c := w.reqs[i].Config
	return "collect-variants/" + w.reqs[i].App + "/" + strconv.Itoa(c.Threads) + "/" + c.Variant.String()
}

func (w *collectVariants) pass(ctx context.Context, t *tally) (*pass, error) {
	reg := obs.NewRegistry()
	opts := sched.Options{Workers: 1, Cache: resultcache.New(0), Metrics: sched.NewMetrics(reg)}
	p := &pass{cols: make([]*core.Collection, len(w.reqs))}
	errs := make([]error, len(w.reqs))
	cpu0, start := cpuTime(), time.Now()
	// One client keeping unitWorkers calls in flight; failures are
	// counted per call, so the loop never stops early.
	_ = sched.ForEach(ctx, len(w.reqs), unitWorkers, func(ctx context.Context, i int) error {
		p.cols[i], errs[i] = sched.Collect(ctx, w.reqs[i], opts)
		return nil
	})
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	p.sched = scrapeRegistry(reg)
	for i := range w.reqs {
		ok := errs[i] == nil && w.chk.match(w.key(i), collectionBytes(p.cols[i]))
		t.op(ok, fmt.Sprintf("%s (err %v)", w.key(i), errs[i]))
	}
	return p, nil
}

func (w *collectVariants) reset() error { return nil }

func (w *collectVariants) layers(ctx context.Context, p *pass, t *tally) (map[string]float64, error) {
	rp := newReplay()
	cols := make([]*core.Collection, len(w.reqs))
	errs := make([]error, len(w.reqs))
	start := time.Now()
	_ = sched.ForEach(ctx, len(w.reqs), unitWorkers, func(ctx context.Context, i int) error {
		cols[i], errs[i] = rp.collect(w.reqs[i].Build, w.reqs[i].Config)
		return nil
	})
	traced := time.Since(start)
	for i := range w.reqs {
		t.op(errs[i] == nil && p.cols[i] != nil &&
			bytes.Equal(collectionBytes(cols[i]), collectionBytes(p.cols[i])),
			fmt.Sprintf("traced replay of %s measures what sched.Collect measured (err %v)", w.key(i), errs[i]))
	}
	m := newLayers()
	rp.fill(m, p.cpu)
	schedLayers(m, p.sched, p.wall)
	m["bench.trace_overhead_s"] = (traced - p.wall).Seconds()
	return m, nil
}

func (w *collectVariants) checker() *checker { return w.chk }
func (w *collectVariants) close()            {}
