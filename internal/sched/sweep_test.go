package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/resultcache"
	"barrierpoint/internal/trace"
)

// sweepRequest builds one member study request for the sweep tests.
func sweepRequest(t *testing.T, app string, threads, runs, reps int) StudyRequest {
	t.Helper()
	a, err := apps.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	return StudyRequest{
		App:   app,
		Build: a.Build,
		Config: core.StudyConfig{
			Threads: threads, Runs: runs, Reps: reps, Seed: 41,
		},
	}
}

// serialStudy is the equivalence reference for sweep members:
// core.RunStudy, the serial composition TestRunMatchesSerialReference pins
// Run to.
func serialStudy(t *testing.T, req StudyRequest) *core.StudyResult {
	t.Helper()
	res, err := core.RunStudy(req.App, req.Build, req.Config)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// executeSweep compiles and executes reqs, failing the test on any
// compile or member error.
func executeSweep(t *testing.T, reqs []StudyRequest, opts Options) ([]StudyOutcome, PlanStats) {
	t.Helper()
	plan, err := CompileSweep(context.Background(), reqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := plan.Execute(context.Background(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("member %d failed: %v", i, out.Err)
		}
	}
	return outs, plan.Stats()
}

// TestSweepPlanDedup: two identical member studies merge into one
// study's worth of units, and both members get the full result.
func TestSweepPlanDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	req := sweepRequest(t, "MCB", 2, 4, 5)
	serial := serialStudy(t, req)
	ce := &countingExecutor{inner: &LocalExecutor{}}
	outs, stats := executeSweep(t, []StudyRequest{req, req}, Options{Workers: 4, Executor: ce})

	perStudy := StudyUnits(req.Config) // runs + 2
	want := PlanStats{Studies: 2, NaiveUnits: 2 * perStudy, PlannedUnits: perStudy, DedupedUnits: perStudy}
	if stats != want {
		t.Errorf("PlanStats = %+v, want %+v", stats, want)
	}
	total := 0
	ce.mu.Lock()
	for _, n := range ce.kinds {
		total += n
	}
	ce.mu.Unlock()
	if total != perStudy {
		t.Errorf("executed %d units, want %d (each shared unit exactly once)", total, perStudy)
	}
	for i, out := range outs {
		if !reflect.DeepEqual(serial, out.Result) {
			t.Errorf("member %d diverges from core.RunStudy", i)
		}
	}
}

// TestSweepPlanSubsumption: a 4-run and a 2-run discovery of the same
// configuration share runs — the subset study plans no unit of its own,
// and scores its two sets itself.
func TestSweepPlanSubsumption(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	big := sweepRequest(t, "MCB", 2, 4, 5)
	small := sweepRequest(t, "MCB", 2, 2, 5)
	serialBig, serialSmall := serialStudy(t, big), serialStudy(t, small)
	outs, stats := executeSweep(t, []StudyRequest{big, small}, Options{Workers: 4})

	// The subset study reuses the baseline and run 1 (subsumed: key-equal
	// discovery configs differing only in Runs) and both collections
	// (deduped: Runs is not a collection parameter), so the DAG holds the
	// superset study's units alone.
	want := PlanStats{
		Studies:       2,
		NaiveUnits:    StudyUnits(big.Config) + StudyUnits(small.Config),
		PlannedUnits:  StudyUnits(big.Config),
		DedupedUnits:  2,
		SubsumedUnits: 2,
	}
	if stats != want {
		t.Errorf("PlanStats = %+v, want %+v", stats, want)
	}
	if !reflect.DeepEqual(serialBig, outs[0].Result) {
		t.Error("superset member diverges from core.RunStudy")
	}
	if !reflect.DeepEqual(serialSmall, outs[1].Result) {
		t.Error("subsumed member diverges from core.RunStudy")
	}
}

// TestSweepSharedBaselineExecutesOnce is the issue's headline scenario: a
// 16-study sweep sharing one discovery configuration (members vary only
// in measurement reps) executes the shared discovery units exactly once.
func TestSweepSharedBaselineExecutesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	const members = 16
	runs := 3
	reqs := make([]StudyRequest, members)
	for i := range reqs {
		reqs[i] = sweepRequest(t, "MCB", 2, runs, 3+i)
	}
	ce := &countingExecutor{inner: &LocalExecutor{}}
	outs, stats := executeSweep(t, reqs, Options{Workers: 8, Executor: ce})

	ce.mu.Lock()
	kinds := ce.kinds
	wantKinds := map[UnitKind]int{
		UnitDiscoverBaseline: 1,
		UnitDiscoverJittered: runs - 1,
		UnitCollect:          2 * members, // reps is a collection parameter
	}
	if !reflect.DeepEqual(kinds, wantKinds) {
		t.Errorf("executed unit kinds = %v, want %v", kinds, wantKinds)
	}
	ce.mu.Unlock()
	if want := (members - 1) * runs; stats.DedupedUnits != want {
		t.Errorf("DedupedUnits = %d, want %d", stats.DedupedUnits, want)
	}
	for i, out := range outs {
		if !bytes.Equal(studyJSON(t, serialStudy(t, reqs[i])), studyJSON(t, out.Result)) {
			t.Errorf("member %d report is not byte-identical to core.RunStudy's", i)
		}
	}
}

func studyJSON(t *testing.T, res *core.StudyResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepGoldenEquivalence: a mixed sweep — different apps, thread
// counts and run counts — renders every member byte-identical to the
// serial core.RunStudy reference.
func TestSweepGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	reqs := []StudyRequest{
		sweepRequest(t, "MCB", 2, 4, 5),
		sweepRequest(t, "LULESH", 2, 3, 5),
		sweepRequest(t, "MCB", 4, 4, 5),
		sweepRequest(t, "MCB", 2, 2, 5), // subsumed into the first member
		sweepRequest(t, "MCB", 2, 4, 5), // deduped against the first member
	}
	outs, _ := executeSweep(t, reqs, Options{Workers: 8})
	for i, req := range reqs {
		if !bytes.Equal(studyJSON(t, serialStudy(t, req)), studyJSON(t, outs[i].Result)) {
			t.Errorf("member %d (%s/%dt) report is not byte-identical to core.RunStudy's",
				i, req.App, req.Config.Threads)
		}
	}
}

// TestSweepWholeStudyCacheHit: a member already answered by the
// whole-study cache plans no units at all.
func TestSweepWholeStudyCacheHit(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	req := sweepRequest(t, "MCB", 2, 4, 5)
	cache := resultcache.New(128)
	opts := Options{Workers: 4, Cache: cache}
	serial, err := Run(context.Background(), req, opts)
	if err != nil {
		t.Fatal(err)
	}
	outs, stats := executeSweep(t, []StudyRequest{req}, opts)
	want := PlanStats{Studies: 1, CachedStudies: 1}
	if stats != want {
		t.Errorf("PlanStats = %+v, want %+v", stats, want)
	}
	if outs[0].Result != serial {
		t.Error("cached member should return the memoised StudyResult")
	}
}

// TestSweepBatchFillsSerialCache: a batch execution populates the same
// whole-study cache entries a later serial Run reads.
func TestSweepBatchFillsSerialCache(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	req := sweepRequest(t, "MCB", 2, 4, 5)
	cache := resultcache.New(128)
	opts := Options{Workers: 4, Cache: cache}
	outs, _ := executeSweep(t, []StudyRequest{req}, opts)
	misses := cache.Stats().Misses
	serial, err := Run(context.Background(), req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Misses != misses {
		t.Error("serial Run after a batch execution should hit the whole-study cache")
	}
	if serial != outs[0].Result {
		t.Error("serial Run should return the batch-computed StudyResult")
	}
}

// TestSweepCancelStudyBeforeExecute: a member cancelled between compile
// and execute resolves to context.Canceled without running any of its
// exclusive units; siblings are unaffected.
func TestSweepCancelStudyBeforeExecute(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	keep := sweepRequest(t, "MCB", 2, 4, 5)
	drop := sweepRequest(t, "LULESH", 2, 4, 5)
	ce := &countingExecutor{inner: &LocalExecutor{}}
	plan, err := CompileSweep(context.Background(), []StudyRequest{keep, drop}, Options{Workers: 4, Executor: ce})
	if err != nil {
		t.Fatal(err)
	}
	plan.CancelStudy(1)
	outs, err := plan.Execute(context.Background(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil {
		t.Fatalf("sibling of a cancelled member failed: %v", outs[0].Err)
	}
	if !errors.Is(outs[1].Err, context.Canceled) {
		t.Errorf("cancelled member Err = %v, want context.Canceled", outs[1].Err)
	}
	total := 0
	ce.mu.Lock()
	for _, n := range ce.kinds {
		total += n
	}
	ce.mu.Unlock()
	if want := StudyUnits(keep.Config); total != want {
		t.Errorf("executed %d units, want %d (the cancelled member's units pruned)", total, want)
	}
}

// gateExecutor delays every unit of one app until released, so a test can
// deterministically interleave a cancellation with a running sweep.
type gateExecutor struct {
	inner   Executor
	app     string
	arrived chan struct{} // closed once the first gated unit arrives
	release chan struct{}
	once    sync.Once
}

func (g *gateExecutor) ExecuteUnit(ctx context.Context, req UnitRequest) (any, error) {
	if req.App == g.app {
		g.once.Do(func() { close(g.arrived) })
		<-g.release
	}
	return g.inner.ExecuteUnit(ctx, req)
}

// TestSweepCancelStudyMidExecution: cancelling a member while the sweep
// runs finalises it promptly (OnStudy sees context.Canceled) and skips
// its still-unstarted exclusive units; the sibling completes normally.
func TestSweepCancelStudyMidExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	keep := sweepRequest(t, "MCB", 2, 3, 5)
	drop := sweepRequest(t, "LULESH", 2, 3, 5)
	ge := &gateExecutor{
		inner:   &LocalExecutor{},
		app:     "LULESH",
		arrived: make(chan struct{}),
		release: make(chan struct{}),
	}
	plan, err := CompileSweep(context.Background(), []StudyRequest{keep, drop}, Options{Workers: 2, Executor: ge})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-ge.arrived
		plan.CancelStudy(1)
		close(ge.release)
	}()
	outs, err := plan.Execute(context.Background(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil {
		t.Fatalf("sibling of a mid-execution-cancelled member failed: %v", outs[0].Err)
	}
	if !reflect.DeepEqual(serialStudy(t, keep), outs[0].Result) {
		t.Error("sibling result diverges from core.RunStudy after a cancellation")
	}
	if !errors.Is(outs[1].Err, context.Canceled) {
		t.Errorf("cancelled member Err = %v, want context.Canceled", outs[1].Err)
	}
}

// appFailExecutor fails every unit of one app.
type appFailExecutor struct {
	inner Executor
	app   string
	err   error
}

func (f *appFailExecutor) ExecuteUnit(ctx context.Context, req UnitRequest) (any, error) {
	if req.App == f.app {
		return nil, f.err
	}
	return f.inner.ExecuteUnit(ctx, req)
}

// TestSweepFailureIsolation: a member whose units fail resolves to the
// same wrapped error serial submission reports, and its siblings finish.
func TestSweepFailureIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	ok := sweepRequest(t, "MCB", 2, 3, 5)
	bad := sweepRequest(t, "LULESH", 2, 3, 5)
	boom := errors.New("boom")
	fe := &appFailExecutor{inner: &LocalExecutor{}, app: "LULESH", err: boom}

	_, serialErr := Run(context.Background(), bad, Options{Workers: 4, Executor: fe})
	if serialErr == nil {
		t.Fatal("serial run of the failing study should fail")
	}

	plan, err := CompileSweep(context.Background(), []StudyRequest{ok, bad}, Options{Workers: 4, Executor: fe})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := plan.Execute(context.Background(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil {
		t.Fatalf("sibling of a failing member failed: %v", outs[0].Err)
	}
	if !errors.Is(outs[1].Err, boom) {
		t.Fatalf("failing member Err = %v, want wrapped %v", outs[1].Err, boom)
	}
	if outs[1].Err.Error() != serialErr.Error() {
		t.Errorf("batch error %q differs from serial error %q", outs[1].Err, serialErr)
	}
}

// stripStdExecutor strips the per-barrier-point standard deviations from
// one app's x86_64 collection, handing out a copy so the unit cache keeps
// the real one.
type stripStdExecutor struct {
	inner Executor
	app   string
}

func (e *stripStdExecutor) ExecuteUnit(ctx context.Context, req UnitRequest) (any, error) {
	v, err := e.inner.ExecuteUnit(ctx, req)
	if err != nil || req.App != e.app || req.Kind != UnitCollect ||
		req.Collect.Variant.ISA.Name != isa.X8664().Name {
		return v, err
	}
	col := *v.(*core.Collection)
	col.PerBPStd = nil
	return &col, nil
}

// TestSweepScoringFailureStaysWithMember: a member whose units all land
// but whose sets fail to score (its x86_64 collection does not cover its
// threads) fails with the scoring error serial submission reports, and
// leaves no whole-study cache entry; its sibling finishes, equal to
// core.RunStudy.
func TestSweepScoringFailureStaysWithMember(t *testing.T) {
	bad := sweepRequest(t, "MCB", 2, 2, 3)
	ok := sweepRequest(t, "CoMD", 2, 2, 3)
	exec := &stripStdExecutor{inner: &LocalExecutor{}, app: bad.App}

	_, serialErr := Run(context.Background(), bad, Options{Workers: 4, Executor: exec})
	if serialErr == nil {
		t.Fatal("serial run of the unscorable study should fail")
	}

	cache := resultcache.New(128)
	plan, err := CompileSweep(context.Background(), []StudyRequest{bad, ok},
		Options{Workers: 4, Executor: exec, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := plan.Execute(context.Background(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err == nil || outs[0].Result != nil {
		t.Fatalf("unscorable member = %v, %v; want a failure", outs[0].Result, outs[0].Err)
	}
	for _, want := range []string{"validating set 0 on x86_64", "does not cover its"} {
		if !strings.Contains(outs[0].Err.Error(), want) {
			t.Errorf("unscorable member err = %q, want it to say %q", outs[0].Err, want)
		}
	}
	if outs[0].Err.Error() != serialErr.Error() {
		t.Errorf("batch error %q differs from serial error %q", outs[0].Err, serialErr)
	}
	if _, hit := cache.Get(plan.studies[0].key); hit {
		t.Error("a study that failed to score was cached")
	}
	if outs[1].Err != nil {
		t.Fatalf("sibling of an unscorable member failed: %v", outs[1].Err)
	}
	if !reflect.DeepEqual(serialStudy(t, ok), outs[1].Result) {
		t.Error("sibling result diverges from core.RunStudy")
	}
}

// TestSweepProgressAndStreaming: Progress reaches total for every member
// and OnStudy fires exactly once per member.
func TestSweepProgressAndStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	reqs := []StudyRequest{
		sweepRequest(t, "MCB", 2, 3, 5),
		sweepRequest(t, "MCB", 2, 3, 5), // fully deduped member
	}
	plan, err := CompileSweep(context.Background(), reqs, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	last := make([]int, len(reqs))
	onStudy := make([]int, len(reqs))
	outs, err := plan.Execute(context.Background(), SweepOptions{
		OnStudy: func(i int, res *core.StudyResult, err error) {
			mu.Lock()
			onStudy[i]++
			mu.Unlock()
		},
		Progress: func(i, done, total int) {
			mu.Lock()
			if done > last[i] {
				last[i] = done
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if outs[i].Err != nil {
			t.Fatalf("member %d failed: %v", i, outs[i].Err)
		}
		if want := StudyUnits(reqs[i].Config); last[i] != want {
			t.Errorf("member %d progress peaked at %d, want %d", i, last[i], want)
		}
		if onStudy[i] != 1 {
			t.Errorf("member %d OnStudy fired %d times, want 1", i, onStudy[i])
		}
	}
}

// TestSweepDiscoveryAndCollectionMembers: discovery and collection
// members share units with a study in one plan, a smaller discovery
// subsumed into the study's and a collection deduped against its ARMv8
// one, and each member's outcome equals the serial core step it stands
// for.
func TestSweepDiscoveryAndCollectionMembers(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	study := sweepRequest(t, "MCB", 2, 3, 5)
	disc := discoveryRequest(study)
	disc.Discovery.Runs = 2
	cols := study.Config.Collections()
	arm := StudyRequest{App: study.App, Build: study.Build, Collect: &cols[1]}
	fewer := cols[0]
	fewer.Reps = 2
	x86 := StudyRequest{App: study.App, Build: study.Build, Collect: &fewer}
	outs, stats := executeSweep(t, []StudyRequest{study, disc, arm, x86}, Options{Workers: 4})

	want := PlanStats{Studies: 4, NaiveUnits: 5 + 2 + 1 + 1, PlannedUnits: 5 + 1,
		DedupedUnits: 1, SubsumedUnits: 2}
	if stats != want {
		t.Errorf("PlanStats = %+v, want %+v", stats, want)
	}
	if !reflect.DeepEqual(serialStudy(t, study), outs[0].Result) {
		t.Error("study member diverges from core.RunStudy")
	}
	wantSets, err := core.Discover(disc.Build, *disc.Discovery)
	if err != nil {
		t.Fatal(err)
	}
	if outs[1].Result != nil || !reflect.DeepEqual(wantSets, outs[1].Sets) {
		t.Error("discovery member diverges from core.Discover")
	}
	for i, cfg := range []core.CollectConfig{cols[1], fewer} {
		wantCol, err := core.Collect(study.Build, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out := outs[2+i]; out.Result != nil || !reflect.DeepEqual(wantCol, out.Col) {
			t.Errorf("collection member %d diverges from core.Collect", 2+i)
		}
	}
}

// TestSweepWrappedBuilderDoesNotAlias: a coarsened builder registered
// under the plain builder's app name builds a different program, so its
// member shares no unit with the plain study and reports its own
// coarsened study. Fingerprints memoised by app name would hand the
// coarsened member the plain study's units.
func TestSweepWrappedBuilderDoesNotAlias(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	plain := sweepRequest(t, "MCB", 2, 2, 3)
	coarse := plain
	coarse.Build = core.CoarsenBuilder(plain.Build, 2)
	outs, stats := executeSweep(t, []StudyRequest{plain, coarse}, Options{Workers: 4})

	if stats.DedupedUnits != 0 || stats.PlannedUnits != 2*StudyUnits(plain.Config) {
		t.Errorf("PlanStats = %+v, want every unit planned and none deduped", stats)
	}
	for i, req := range []StudyRequest{plain, coarse} {
		if want := serialStudy(t, req); !reflect.DeepEqual(want, outs[i].Result) {
			t.Errorf("member %d: %d barrier points, core.RunStudy with its own builder finds %d",
				i, outs[i].Result.TotalBPs, want.TotalBPs)
		}
	}
	if outs[0].Result.TotalBPs == outs[1].Result.TotalBPs {
		t.Errorf("coarsening by 2 left %d barrier points", outs[1].Result.TotalBPs)
	}
}

// TestSweepExecuteTwice: a plan is single-use.
func TestSweepExecuteTwice(t *testing.T) {
	if testing.Short() {
		t.Skip("executes full studies; covered by make test-sweep")
	}
	plan, err := CompileSweep(context.Background(),
		[]StudyRequest{sweepRequest(t, "MCB", 2, 2, 3)}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(context.Background(), SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(context.Background(), SweepOptions{}); err == nil ||
		!strings.Contains(err.Error(), "executed twice") {
		t.Errorf("second Execute = %v, want executed-twice error", err)
	}
}

// TestSweepNilBuilder: the compiler rejects a member without a builder;
// Run reports the same error through it.
func TestSweepNilBuilder(t *testing.T) {
	_, err := CompileSweep(context.Background(),
		[]StudyRequest{{App: "MCB", Config: core.StudyConfig{Threads: 2}}}, Options{})
	if err == nil || !strings.Contains(err.Error(), "no program builder") {
		t.Errorf("CompileSweep with nil builder = %v, want builder error", err)
	}
}

// TestCompileSweepNamesFailingMember: a member that fails to compile is
// named by its index, app and kind, and its cause stays reachable through
// errors.Is, for each compile-time failure: a builder error, a collection
// without an ISA and a member asking for both steps. The failing member
// is the second of three; the first plans normally.
func TestCompileSweepNamesFailingMember(t *testing.T) {
	req := testRequest(t)
	errBuild := errors.New("builder failed")
	failing := func(int, isa.Variant) (*trace.Program, error) { return nil, errBuild }
	col := req.Config.Collections()[0]
	noISA := col
	noISA.Variant = isa.Variant{}
	disc := req.Config.Discovery()
	cases := []struct {
		name   string
		member StudyRequest
		want   string
		is     error
	}{
		{"builder", StudyRequest{App: "RSBench", Build: failing, Config: req.Config},
			"sched: member 1 (RSBench study): ", errBuild},
		{"no-isa", StudyRequest{App: "CoMD", Build: req.Build, Collect: &noISA},
			"sched: member 1 (CoMD collection): core: collection needs a binary variant", nil},
		{"both", StudyRequest{App: "LULESH", Build: req.Build, Discovery: &disc, Collect: &col},
			"sched: member 1 (LULESH discovery and collection): asks for a discovery and a collection at once", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reqs := []StudyRequest{req, tc.member, req}
			_, err := CompileSweep(context.Background(), reqs, Options{})
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("CompileSweep = %v, want an error starting %q", err, tc.want)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Errorf("errors.Is(%v, %v) = false", err, tc.is)
			}
		})
	}
}

// BenchmarkSweepPlanner compiles (without executing) a 16-study ablation
// sweep — one shared discovery configuration, members varying in reps —
// and reports how far the planner compresses the naive unit count.
func BenchmarkSweepPlanner(b *testing.B) {
	a, err := apps.ByName("MCB")
	if err != nil {
		b.Fatal(err)
	}
	const members = 16
	reqs := make([]StudyRequest, members)
	for i := range reqs {
		reqs[i] = StudyRequest{
			App:   "MCB",
			Build: a.Build,
			Config: core.StudyConfig{
				Threads: 2, Runs: 10, Reps: 3 + i, Seed: 41,
			},
		}
	}
	// Warm the builder cache so iterations measure planning, not the
	// first trace synthesis.
	if _, err := CompileSweep(context.Background(), reqs, Options{}); err != nil {
		b.Fatal(err)
	}
	var stats PlanStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := CompileSweep(context.Background(), reqs, Options{})
		if err != nil {
			b.Fatal(err)
		}
		stats = plan.Stats()
	}
	b.ReportMetric(float64(stats.PlannedUnits), "planned-units")
	b.ReportMetric(float64(stats.NaiveUnits), "naive-units")
	if stats.PlannedUnits >= stats.NaiveUnits {
		b.Fatalf("planner failed to compress the sweep: %+v", stats)
	}
	_ = fmt.Sprintf("%d", stats.PlannedUnits)
}
