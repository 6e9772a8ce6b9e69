package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/core"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/service"
)

// fleetSweep drives a coordinator and two in-process unit workers over
// loopback HTTP: a cold batch sweep of small overlapping studies, then
// every member resubmitted through POST /studies, served from the cache.
type fleetSweep struct {
	members []service.SubmitRequest
	rounds  int // cached resubmissions of every member
	traced  bool
	chk     *checker
	fleet   *fleet
}

func newFleetSweep(cfg config) workload {
	names, threads, reps, runs, rounds := []string{"MCB", "graph500", "HPCG"}, []int{2, 4, 8}, []int{5, 20}, 10, 10
	if cfg.tiny {
		names, threads, reps, runs, rounds = []string{"MCB"}, []int{2}, []int{3, 5}, 2, 2
	}
	w := &fleetSweep{rounds: rounds, traced: cfg.trace, chk: newChecker(cfg)}
	for _, a := range names {
		for _, th := range threads {
			for _, r := range reps {
				w.members = append(w.members, service.SubmitRequest{App: a, Threads: th, Runs: runs, Reps: r, Seed: cfg.seed})
			}
		}
	}
	return w
}

func (w *fleetSweep) setup() error {
	for _, m := range w.members {
		if err := buildPrograms(lookupApps([]string{m.App}), []int{m.Threads}, m.Vectorised); err != nil {
			return err
		}
	}
	var err error
	w.fleet, err = startFleet()
	return err
}

func (w *fleetSweep) reset() error {
	w.fleet.close()
	var err error
	w.fleet, err = startFleet()
	return err
}

func (w *fleetSweep) close() {
	if w.fleet != nil {
		w.fleet.close()
		w.fleet = nil
	}
}

func (w *fleetSweep) checker() *checker { return w.chk }

// memberKey names one sweep member in the reference digests.
func memberKey(m service.SubmitRequest) string {
	return fmt.Sprintf("fleet-sweep/%s/t%d/r%d", m.App, m.Threads, m.Reps)
}

// fleetPass is what the service's own metrics and traces showed during a
// pass, kept for the per-layer split.
type fleetPass struct {
	members       []service.JobStatus // cold-phase member statuses
	cold          scrape              // coordinator /metrics after the cold phase
	workers       []scrape            // each worker's /metrics after the cold phase
	trace         obs.Trace           // /sweeps/{id}/trace
	before, after scrape              // coordinator /metrics around the cached phase
	cachedMS      []float64           // submit→report latency of every cached resubmission
}

func (w *fleetSweep) pass(ctx context.Context, t *tally) (*pass, error) {
	f := w.fleet
	p := &pass{fleet: &fleetPass{}}
	fp := p.fleet

	// Cold phase: one batch submission, long-polled to done.
	cpu0, start := cpuTime(), time.Now()
	var sw service.SweepStatus
	if err := f.call(ctx, http.MethodPost, "/studies:batch", service.BatchRequest{Studies: w.members}, &sw); err != nil {
		return nil, err
	}
	for !terminal(sw.State) {
		path := fmt.Sprintf("/sweeps/%s?wait=60s&since=%d", sw.ID, sw.Version)
		if err := f.call(ctx, http.MethodGet, path, nil, &sw); err != nil {
			return nil, err
		}
	}
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0

	cold := make([][]byte, len(w.members))
	fp.members = sw.Studies
	for i, m := range w.members {
		ok := sw.State == service.StateDone && i < len(sw.Studies) && sw.Studies[i].State == service.StateDone
		if ok {
			var err error
			cold[i], err = f.get(ctx, "/studies/"+sw.Studies[i].ID+"/report")
			ok = err == nil && w.chk.match(memberKey(m), cold[i])
		}
		t.op(ok, fmt.Sprintf("%s in sweep %s (%s)", memberKey(m), sw.ID, sw.State))
	}
	if w.traced {
		if err := w.scrapeCold(ctx, sw.ID, fp); err != nil {
			return nil, err
		}
	}

	// Cached phase: every member resubmitted alone, its report fetched and
	// compared byte for byte with the cold phase's.
	if w.traced {
		fp.before = f.scrape(ctx, f.url)
	}
	for round := 0; round < w.rounds; round++ {
		for i, m := range w.members {
			t0 := time.Now()
			report, err := f.submitAndReport(ctx, m)
			fp.cachedMS = append(fp.cachedMS, float64(time.Since(t0))/float64(time.Millisecond))
			t.op(err == nil && cold[i] != nil && bytes.Equal(report, cold[i]),
				fmt.Sprintf("cached resubmission of %s matches the cold report (err %v)", memberKey(m), err))
		}
	}
	if w.traced {
		fp.after = f.scrape(ctx, f.url)
	}
	return p, nil
}

// scrapeCold reads the coordinator's and workers' metrics and the sweep's
// span tree once the cold phase is done.
func (w *fleetSweep) scrapeCold(ctx context.Context, sweepID string, fp *fleetPass) error {
	f := w.fleet
	fp.cold = f.scrape(ctx, f.url)
	for _, u := range f.workerURLs {
		fp.workers = append(fp.workers, f.scrape(ctx, u))
	}
	return f.call(ctx, http.MethodGet, "/sweeps/"+sweepID+"/trace", nil, &fp.trace)
}

func (w *fleetSweep) layers(ctx context.Context, p *pass, t *tally) (map[string]float64, error) {
	fp := p.fleet
	m := newLayers()
	schedLayers(m, fp.cold, p.wall)
	m["sched.plan_s"] = fp.cold.sum("bp_sweep_plan_seconds_sum")
	m["sched.units_planned"] = fp.cold.sum("bp_sweep_units_planned_total")
	m["sched.units_deduped"] = fp.cold.sum("bp_sweep_units_deduped_total")
	m["sched.units_subsumed"] = fp.cold.sum("bp_sweep_units_subsumed_total")
	m["remote.retries"] = fp.cold.sum("bp_dispatch_retries_total")
	m["remote.fallbacks"] = fp.cold.sum("bp_dispatch_fallbacks_total")
	m["remote.worker_skew"] = skew(fp.cold.byLabel("bp_dispatch_worker_units_total", "worker"))

	sp := walkTrace(fp.trace)
	m["remote.dispatch_s"] = sp.dispatch.Seconds()
	m["remote.transfer_s"] = sp.transfer.Seconds()
	m["worker.decode_s"] = sp.decode.Seconds()
	m["worker.compute_s"] = sp.compute.Seconds()
	m["worker.encode_s"] = sp.encode.Seconds()
	var misses float64
	for _, s := range fp.workers {
		misses += s.sum("bp_cache_misses_total")
	}
	if sp.cacheableUnits > 0 {
		m["worker.recompute_ratio"] = misses / float64(sp.cacheableUnits)
	}

	delta := func(name string) float64 { return fp.after.sum(name) - fp.before.sum(name) }
	m["service.queue_wait_s"] = delta("bp_queue_wait_seconds_sum")
	m["service.http_s"] = delta("bp_http_request_seconds_sum")
	m["service.cached_report_ms_p50"] = median(fp.cachedMS)
	if hits, misses := delta("bp_cache_hits_total"), delta("bp_cache_misses_total"); hits+misses > 0 {
		m["resultcache.hit_ratio"] = hits / (hits + misses)
	}

	// The compute layers: replay every member locally, sharing discovery
	// runs and collections the way the sweep planner does.
	rp := newReplay()
	start := time.Now()
	for i, req := range w.members {
		a, err := apps.ByName(req.App)
		if err != nil {
			return nil, err
		}
		res, err := rp.study(ctx, a.Name, a.Build, core.StudyConfig{
			Threads: req.Threads, Vectorised: req.Vectorised, Runs: req.Runs, Reps: req.Reps, Seed: req.Seed, MaxK: req.MaxK,
		})
		t.op(err == nil && i < len(fp.members) && sameSummary(res, fp.members[i].Summary),
			fmt.Sprintf("traced replay of %s matches the service's summary (err %v)", memberKey(req), err))
	}
	traced := time.Since(start)
	rp.fill(m, p.cpu)
	m["bench.trace_overhead_s"] = (traced - p.wall).Seconds()
	return m, nil
}

// sameSummary reports whether a replayed study digests to the summary the
// service published for it.
func sameSummary(res *core.StudyResult, got *core.Summary) bool {
	if got == nil {
		return false
	}
	a, err1 := json.Marshal(res.Summarise())
	b, err2 := json.Marshal(got)
	return err1 == nil && err2 == nil && bytes.Equal(a, b)
}

// skew is the largest per-worker unit count over the mean.
func skew(units map[string]float64) float64 {
	var total, most float64
	for _, u := range units {
		total += u
		most = max(most, u)
	}
	if total == 0 {
		return 0
	}
	return most / (total / float64(len(units)))
}

// traceTotals sums what the sweep's span tree shows about dispatch.
type traceTotals struct {
	dispatch, transfer, decode, compute, encode time.Duration
	// cacheableUnits counts the coordinator's non-validate unit spans: the
	// distinct cacheable units the planner scheduled.
	cacheableUnits int
}

// walkTrace totals the dispatch spans, the transfer part of each (the
// dispatch span minus the worker's recv span grafted under it), and the
// worker's decode, compute and encode spans.
func walkTrace(tr obs.Trace) traceTotals {
	var tt traceTotals
	us := func(n *obs.SpanNode) time.Duration { return time.Duration(n.DurUS) * time.Microsecond }
	var walk func(n *obs.SpanNode, depth int)
	walk = func(n *obs.SpanNode, depth int) {
		switch n.Name {
		case "dispatch":
			tt.dispatch += us(n)
			tt.transfer += us(n)
			for _, c := range n.Children {
				if c.Name == "recv" {
					tt.transfer -= us(c)
				}
			}
		case "decode":
			tt.decode += us(n)
		case "compute":
			tt.compute += us(n)
		case "encode":
			tt.encode += us(n)
		}
		if depth == 1 && strings.HasPrefix(n.Name, "unit:") && n.Name != "unit:validate" {
			tt.cacheableUnits++
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, root := range tr.Spans {
		walk(root, 0)
	}
	return tt
}

func terminal(st service.State) bool {
	return st == service.StateDone || st == service.StateFailed || st == service.StateCancelled
}

// fleet is a coordinator with two unit workers, each behind a loopback
// HTTP server, every one holding one unit at a time.
type fleet struct {
	coord      *service.Server
	workers    []*service.Worker
	servers    []*httptest.Server // workers first, coordinator last
	url        string
	workerURLs []string
	client     *http.Client
}

func startFleet() (*fleet, error) {
	log := obs.NewLogger(io.Discard, obs.LevelError, 16)
	f := &fleet{client: &http.Client{}}
	for i := 0; i < unitWorkers; i++ {
		w, err := service.NewWorker(service.WorkerConfig{MaxInflight: 1, Log: log})
		if err != nil {
			f.close()
			return nil, err
		}
		srv := httptest.NewServer(w.Handler())
		f.workers = append(f.workers, w)
		f.servers = append(f.servers, srv)
		f.workerURLs = append(f.workerURLs, srv.URL)
	}
	coord, err := service.New(service.Config{
		Workers: unitWorkers, Executors: 1, WorkerURLs: f.workerURLs, WorkerInflight: 1, Log: log,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	srv := httptest.NewServer(coord.Handler())
	f.servers = append(f.servers, srv)
	f.url = srv.URL
	for _, u := range append([]string{f.url}, f.workerURLs...) {
		if _, err := f.fetch(context.Background(), http.MethodGet, u+"/healthz", nil); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// close stops the coordinator before the workers it dispatches to, and
// waits for every server to finish its requests.
func (f *fleet) close() {
	if n := len(f.servers); n > len(f.workers) {
		f.servers[n-1].Close()
		f.servers = f.servers[:n-1]
	}
	if f.coord != nil {
		f.coord.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	for _, w := range f.workers {
		_ = w.Close() // in-memory caches: nothing to flush
	}
	f.client.CloseIdleConnections()
}

// submitAndReport submits one study, long-polls it to a terminal state
// and returns its report.
func (f *fleet) submitAndReport(ctx context.Context, req service.SubmitRequest) ([]byte, error) {
	var st service.JobStatus
	if err := f.call(ctx, http.MethodPost, "/studies", req, &st); err != nil {
		return nil, err
	}
	for !terminal(st.State) {
		if err := f.call(ctx, http.MethodGet, fmt.Sprintf("/studies/%s?wait=60s&since=%d", st.ID, st.Version), nil, &st); err != nil {
			return nil, err
		}
	}
	if st.State != service.StateDone {
		return nil, fmt.Errorf("study %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return f.get(ctx, "/studies/"+st.ID+"/report")
}

// call sends a JSON request to the coordinator and decodes its reply.
func (f *fleet) call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	data, err := f.fetch(ctx, method, f.url+path, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// get fetches one coordinator path.
func (f *fleet) get(ctx context.Context, path string) ([]byte, error) {
	return f.fetch(ctx, http.MethodGet, f.url+path, nil)
}

// scrape reads and parses one server's /metrics; a failed scrape reads as
// empty, which the per-layer metrics show as zeros.
func (f *fleet) scrape(ctx context.Context, base string) scrape {
	data, err := f.fetch(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil
	}
	return parseScrape(string(data))
}

func (f *fleet) fetch(ctx context.Context, method, url string, body io.Reader) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}
