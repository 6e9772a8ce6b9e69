// Benchmarks that regenerate every table and figure of the paper's
// evaluation, one benchmark per artefact, plus the ablation studies from
// DESIGN.md and micro-benchmarks of the core substrates.
//
// The experiment benchmarks share one Runner per benchmark (studies are
// cached after the first iteration), and use the Quick sweep — fewer
// discovery runs and thread counts than the paper's full configuration.
// The full sweep is available through:
//
//	go run ./cmd/bpexperiments -exp all
package barrierpoint_test

import (
	"context"
	"io"
	"strings"
	"sync"
	"testing"

	"barrierpoint"
	"barrierpoint/internal/core"
	"barrierpoint/internal/experiments"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/omp"
	"barrierpoint/internal/pin"
	"barrierpoint/internal/sched"
	"barrierpoint/internal/simpoint"
	"barrierpoint/internal/xrand"
)

// sharedRunner caches studies across all experiment benchmarks, so the
// bench suite pays for each (app, threads, vectorised) study once.
var sharedRunner = experiments.NewRunner(experiments.Quick())

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	exp, err := experiments.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render := exp.Run(sharedRunner)
		if _, err := sharedRunner.Execute(); err != nil {
			b.Fatal(err)
		}
		if err := render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1AppCatalog regenerates Table I.
func BenchmarkTable1AppCatalog(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2Machines regenerates Table II.
func BenchmarkTable2Machines(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3Selection regenerates Table III (barrier points selected
// per application across configurations and discovery runs).
func BenchmarkTable3Selection(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4Accuracy regenerates Table IV (estimation error and
// speed-up for the 8-thread configurations).
func BenchmarkTable4Accuracy(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkFig1MCBPhases regenerates Figure 1 (MCB per-barrier-point CPI
// and L2D MPKI with two barrier point sets).
func BenchmarkFig1MCBPhases(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2Errors regenerates Figure 2 (estimation error per
// application, thread count, and prediction target).
func BenchmarkFig2Errors(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkLimitsApplicability regenerates the Section V-B limitation
// analysis.
func BenchmarkLimitsApplicability(b *testing.B) { benchExperiment(b, "limits") }

// BenchmarkOverheadVariability regenerates the Section V-C overhead and
// variability study.
func BenchmarkOverheadVariability(b *testing.B) { benchExperiment(b, "overhead") }

// BenchmarkHeadline regenerates the Section VI headline numbers.
func BenchmarkHeadline(b *testing.B) { benchExperiment(b, "headline") }

// BenchmarkAblationSignature compares BBV+LDV, BBV-only and LDV-only
// signatures.
func BenchmarkAblationSignature(b *testing.B) { benchExperiment(b, "ablation-signature") }

// BenchmarkAblationDropInsignificant reproduces the keep-all-points
// decision.
func BenchmarkAblationDropInsignificant(b *testing.B) { benchExperiment(b, "ablation-drop") }

// BenchmarkAblationDiscoveryRuns sweeps the number of discovery runs.
func BenchmarkAblationDiscoveryRuns(b *testing.B) { benchExperiment(b, "ablation-runs") }

// BenchmarkAblationProjectionDim sweeps the signature projection dimension.
func BenchmarkAblationProjectionDim(b *testing.B) { benchExperiment(b, "ablation-dim") }

// BenchmarkFutureWorkCoreTypes validates selections on in-order vs
// out-of-order target cores (Section VIII).
func BenchmarkFutureWorkCoreTypes(b *testing.B) { benchExperiment(b, "fw-coretypes") }

// BenchmarkFutureWorkCoarsen fuses LULESH's short regions (Section VIII).
func BenchmarkFutureWorkCoarsen(b *testing.B) { benchExperiment(b, "fw-coarsen") }

// BenchmarkFutureWorkMultiplex measures the counter-multiplexing cost
// (Section VIII).
func BenchmarkFutureWorkMultiplex(b *testing.B) { benchExperiment(b, "fw-multiplex") }

// BenchmarkFutureWorkRefine splits RSBench's single region into intervals
// (Section V-B).
func BenchmarkFutureWorkRefine(b *testing.B) { benchExperiment(b, "fw-refine") }

// BenchmarkFutureWorkISADiff quantifies cross-ISA instruction and cycle
// ratios (Section VIII).
func BenchmarkFutureWorkISADiff(b *testing.B) { benchExperiment(b, "fw-isadiff") }

// --- substrate micro-benchmarks ---

// BenchmarkCollect measures Step 3 collection of HPCG at the paper's
// configuration (8 threads, 20 repetitions) on each ISA's native machine:
// one native run through the Table II cache hierarchy, under the Intel
// next-line prefetcher or the X-Gene stream prefetcher, then PAPI
// sampling of every barrier point and thread.
func BenchmarkCollect(b *testing.B) {
	app, err := barrierpoint.AppByName("HPCG")
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range []*isa.ISA{isa.X8664(), isa.ARMv8()} {
		cfg := barrierpoint.CollectConfig{Variant: isa.Variant{ISA: a}, Threads: 8, Reps: 20, Seed: 42}
		b.Run(strings.ToLower(a.Name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := barrierpoint.Collect(app.Build, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStudy measures single-study latency: each iteration runs one
// cold sched.Run at the paper's configuration (8 threads, 10 discovery
// runs, 20 repetitions, seed 42) on two unit workers with no result
// cache, so every unit of the study executes.
func BenchmarkStudy(b *testing.B) {
	for _, name := range []string{"HPCG", "LULESH", "MCB"} {
		app, err := barrierpoint.AppByName(name)
		if err != nil {
			b.Fatal(err)
		}
		req := sched.StudyRequest{App: name, Build: app.Build,
			Config: core.StudyConfig{Threads: 8, Runs: 10, Reps: 20, Seed: 42}}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.Run(context.Background(), req, sched.Options{Workers: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPinInstrumentedRunHPCG measures one discovery run with full
// BBV+LDV collection.
func BenchmarkPinInstrumentedRunHPCG(b *testing.B) {
	app, err := barrierpoint.AppByName("HPCG")
	if err != nil {
		b.Fatal(err)
	}
	v := isa.Variant{ISA: isa.X8664()}
	prog, err := app.Build(8, v)
	if err != nil {
		b.Fatal(err)
	}
	cfg := omp.Config{Machine: machine.IntelI7(), Variant: v, Threads: 8, WarmCaches: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := pin.Stream(prog, cfg, pin.Options{}, func(pin.Signature) { n++ })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscoveryPipeline measures end-to-end barrier point discovery —
// the streaming signature pipeline this repository's hot path is built
// around: instrumented execution (sparse BBV/LDV collection with
// generation-reset stack distances), per-point signature projection, and
// clustering, for one canonical plus one jittered run.
func BenchmarkDiscoveryPipeline(b *testing.B) {
	app, err := barrierpoint.AppByName("HPCG")
	if err != nil {
		b.Fatal(err)
	}
	cfg := barrierpoint.DefaultDiscovery(8, false, 42)
	cfg.Runs = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := barrierpoint.Discover(app.Build, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansClustering measures SimPoint-style clustering of 1000
// synthetic signature points. The seed is fixed so every iteration does
// the same work.
func BenchmarkKMeansClustering(b *testing.B) {
	rng := xrand.New(1)
	points := make([]simpoint.Point, 1000)
	for i := range points {
		vec := make([]float64, 30)
		centre := float64(i % 7)
		for j := range vec {
			vec[j] = centre + 0.05*rng.NormFloat64()
		}
		points[i] = simpoint.Point{Vec: vec, Weight: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simpoint.Cluster(points, simpoint.DefaultConfig(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// clusterInput is what a discovery run hands to clustering, with the
// LDV baseline the canonical run leaves for the jittered ones.
type clusterInput struct {
	points []simpoint.Point
	cfg    simpoint.Config
	base   *core.LDVBaseline
}

// discoveryInput builds what an app's 8-thread, seed-42 discovery run
// `run` clusters through core's own discovery path, stopping short of
// the clustering. A jittered run (run ≥ 1) takes the canonical run's LDV
// baseline.
func discoveryInput(name string, run int, base *core.LDVBaseline) (clusterInput, error) {
	app, err := barrierpoint.AppByName(name)
	if err != nil {
		return clusterInput{}, err
	}
	points, cfg, newBase, err := core.DiscoveryPoints(app.Build, core.DefaultDiscovery(8, false, 42), run, base)
	return clusterInput{points, cfg, newBase}, err
}

// hpcgPoints and luleshPoints hold the canonical discovery runs' inputs,
// and luleshJitteredPoints LULESH's run 1, built once for the clustering
// benchmarks.
var (
	hpcgPoints           = sync.OnceValues(func() (clusterInput, error) { return discoveryInput("HPCG", 0, nil) })
	luleshPoints         = sync.OnceValues(func() (clusterInput, error) { return discoveryInput("LULESH", 0, nil) })
	luleshJitteredPoints = sync.OnceValues(func() (clusterInput, error) {
		canonical, err := luleshPoints()
		if err != nil {
			return clusterInput{}, err
		}
		return discoveryInput("LULESH", 1, canonical.base)
	})
)

// benchCluster clusters a discovery run's points as discovery does: at
// the paper's SimPoint settings (MaxK 20, 5 restarts per k) with the
// run's own k-means seed. Building the points is not timed.
func benchCluster(b *testing.B, input func() (clusterInput, error)) {
	in, err := input()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simpoint.Cluster(in.points, in.cfg); err != nil {
			b.Fatal(err)
		}
	}
	// After the loop: ResetTimer deletes metrics reported before it.
	b.ReportMetric(float64(len(in.points)), "points")
}

// BenchmarkClusterHPCG measures clustering on real signature vectors: the
// canonical HPCG 8-thread discovery run (803 points, 166 of them
// distinct).
func BenchmarkClusterHPCG(b *testing.B) { benchCluster(b, hpcgPoints) }

// BenchmarkClusterLULESH clusters the canonical LULESH 8-thread discovery
// run: 9,840 points of 30 dimensions (2.4 MB, more than a typical L2),
// the largest point set of the paper suite. Only 200 of its points are
// distinct; a study's nine jittered runs, which make most of its
// clustering, are not (see BenchmarkClusterLULESHJittered).
func BenchmarkClusterLULESH(b *testing.B) { benchCluster(b, luleshPoints) }

// BenchmarkClusterLULESHJittered clusters LULESH's jittered discovery run
// 1: 9,840 distinct points in a few dozen tight clumps, the shape of the
// nine jittered runs per study that make most of the suite's clustering.
func BenchmarkClusterLULESHJittered(b *testing.B) { benchCluster(b, luleshJitteredPoints) }
