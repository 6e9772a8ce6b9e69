// Command bpbench is the repository's study-level benchmark. It drives
// the program from outside, through its public entry points only
// (sched.Run, sched.Collect, and the HTTP API of service.New and
// service.NewWorker), and prints one JSON result line:
//
//	bash bpbench/run.sh --workload paper-suite --seed 42 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json,
// measured with nothing but the program's own always-on metrics. With
// --trace 1 it runs one untraced pass, then a separate traced replay that
// times the calls into each layer's public functions, and reports the
// per-layer metrics. See README.md for the workloads and the layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the reference digests in refs.json were
// recorded for.
const defaultSeed = 42

// setupProbes is how many extra set-ups run in fresh child processes, so
// setup_s is a median of setupProbes+1 cold set-ups.
const setupProbes = 4

// runTimeout bounds one invocation, so a stuck request fails the run
// instead of hanging it.
const runTimeout = 170 * time.Second

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to smoke-test size (tests only).
	tiny bool
	// probes is how many child-process set-ups to time (0 in tests).
	probes int
	// refs overrides the reference digests (tests corrupt them); noRefs
	// disables the reference check (recording new references).
	refs   map[string]string
	noRefs bool
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Uint64("seed", defaultSeed, "seed the workload's inputs derive from")
		seconds   = flag.Float64("seconds", 30, "how long to keep starting timed passes")
		trace     = flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
		probe     = flag.Bool("setup-probe", false, "time one set-up, print its seconds and exit")
		writeRefs = flag.String("write-refs", "", "run the default seed once and write its reference digests to this file")
	)
	flag.Parse()
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, probes: setupProbes}
	if err := dispatch(cfg, *probe, *writeRefs); err != nil {
		fmt.Fprintln(os.Stderr, "bpbench:", err)
		os.Exit(1)
	}
}

func dispatch(cfg config, probe bool, writeRefs string) error {
	if _, ok := workloads[cfg.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if probe {
		d, err := timeSetup(cfg)
		if err != nil {
			return err
		}
		fmt.Println(d.Seconds())
		return nil
	}
	if writeRefs != "" {
		return recordRefs(cfg, writeRefs)
	}
	// Every run must end within 180 seconds; a hang becomes an error.
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	res, err := run(ctx, cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// timeSetup sets the workload up once, times it, and tears it down.
func timeSetup(cfg config) (time.Duration, error) {
	w := workloads[cfg.workload](cfg)
	start := time.Now()
	err := w.setup()
	d := time.Since(start)
	w.close()
	return d, err
}

// probeSetup times one cold set-up in a fresh child process: programs are
// cached process-wide, so only a new process sets up from nothing.
func probeSetup(cfg config) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--setup-probe", "--workload", cfg.workload, "--seed", strconv.FormatUint(cfg.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// run executes one benchmark invocation and assembles its result line.
func run(ctx context.Context, cfg config) (*result, error) {
	var setups []float64
	for i := 0; i < cfg.probes && !cfg.trace; i++ {
		s, err := probeSetup(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	w := workloads[cfg.workload](cfg)
	defer w.close()
	start := time.Now()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, time.Since(start).Seconds())

	var t tally
	if cfg.trace {
		p, err := w.pass(ctx, &t)
		if err != nil {
			return nil, err
		}
		layers, err := w.layers(ctx, p, &t)
		if err != nil {
			return nil, err
		}
		layers["check.ops_failed_frac"] = float64(t.failed) / float64(max(t.attempted, 1))
		return t.result(layers), nil
	}

	var walls, cpus []float64
	measureStart := time.Now()
	for {
		p, err := w.pass(ctx, &t)
		if err != nil {
			return nil, err
		}
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		if time.Since(measureStart)+p.wall > time.Duration(cfg.seconds*float64(time.Second)) {
			break
		}
		if err := w.reset(); err != nil {
			return nil, err
		}
	}
	return t.result(map[string]float64{
		"setup_s":    median(setups),
		"wall_s":     median(walls),
		"cpu_s":      median(cpus),
		"max_rss_mb": maxRSSMB(),
	}), nil
}

// tally counts the operations a run attempted and those that failed or
// produced output that did not check.
type tally struct {
	attempted, failed int
}

// op records one operation and whether it succeeded and checked.
func (t *tally) op(ok bool, what string) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintln(os.Stderr, "bpbench: check failed:", what)
	}
}

func (t *tally) result(values map[string]float64) *result {
	res := &result{
		Correct:   t.failed == 0,
		Attempted: max(t.attempted, 1),
		Failed:    t.failed,
		Metrics:   make(map[string]metric, len(values)),
	}
	for name, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	return res
}

// unitOf derives a metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms_p50"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_pct_max"):
		return "%"
	case strings.HasSuffix(name, "_x_max"):
		return "x"
	case strings.HasSuffix(name, "_s") || strings.Contains(name, ".unit_s."):
		return "s"
	case strings.HasSuffix(name, "_frac") || strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_skew"):
		return "ratio"
	}
	return "count"
}

// median returns the middle value (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
