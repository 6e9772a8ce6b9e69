// Command benchjson converts `go test -bench` output on stdin into a JSON
// document, so the performance trajectory of the signature pipeline can be
// recorded and diffed across commits:
//
//	go test -run '^$' -bench Pipeline -benchmem ./... | benchjson -out BENCH_pipeline.json
//
// The output file is a trajectory: `{"runs": [...]}` with one entry per
// invocation, newest last. An existing file is appended to, never
// overwritten — the point of the record is comparing runs across commits
// — and a legacy single-run file (the pre-trajectory format) is wrapped
// into the first entry. -label tags a run (e.g. a commit hash).
//
// Only benchmark result lines (and the pkg:/cpu: context lines) are
// consumed; everything else — PASS, ok, warm-up output — is ignored, and
// failing input (no benchmark lines, or a FAIL line) exits non-zero so CI
// wiring cannot silently record an empty trajectory. The repeated lines
// `go test -count N` prints for one benchmark fold into one entry holding
// their median ns/op, B/op and allocs/op, with count N.
//
// -diff compares the trajectory's newest run against the one before it
// (`benchjson -diff BENCH_pipeline.json`), printing per-benchmark deltas
// and exiting non-zero on regressions: ns/op more than 10% slower (only
// when both runs report the same CPU — wall-clock numbers from different
// machines are not comparable), or any allocs/op increase on a benchmark
// the previous run pinned at zero allocations.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// gitCommit returns the short commit hash of the working tree, or "" when
// git (or a repository) is unavailable — attribution is best-effort, not
// a reason to fail a benchmark recording.
func gitCommit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Result is one benchmark's parsed result, folded across -count runs.
type Result struct {
	Package    string  `json:"package,omitempty"`
	Name       string  `json:"name"`
	Procs      int     `json:"procs,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp/AllocsPerOp are present only under -benchmem.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Count is the number of result lines (-count runs) folded into this
	// entry; Iterations and the per-op figures are their medians.
	Count int `json:"count,omitempty"`
}

// Document is one recorded benchmark run.
type Document struct {
	// RecordedAt and Label identify the run within a trajectory.
	RecordedAt string `json:"recorded_at,omitempty"`
	Label      string `json:"label,omitempty"`
	// Commit is the repository's short commit hash at recording time
	// (suffixed -dirty when the tree had local changes), so trajectory
	// entries attribute to commits without relying on -label discipline.
	Commit     string   `json:"commit,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	GoVersion  string   `json:"go_version,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// Trajectory is the on-disk shape: one entry per recorded run, newest
// last.
type Trajectory struct {
	Runs []Document `json:"runs"`
}

// loadTrajectory reads an existing trajectory file. A missing or empty
// file starts a fresh trajectory; a legacy single-run file becomes its
// first entry; anything else unparseable is an error — appending must
// never silently discard the recorded history.
func loadTrajectory(path string) (Trajectory, error) {
	var tr Trajectory
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return tr, nil
		}
		return tr, err
	}
	if len(data) == 0 {
		return tr, nil
	}
	if err := json.Unmarshal(data, &tr); err == nil && tr.Runs != nil {
		return tr, nil
	}
	var legacy Document
	if err := json.Unmarshal(data, &legacy); err == nil && len(legacy.Benchmarks) > 0 {
		return Trajectory{Runs: []Document{legacy}}, nil
	}
	return tr, fmt.Errorf("%s exists but is neither a trajectory nor a legacy run document", path)
}

func main() {
	out := flag.String("out", "", "trajectory file to append the run to (default: write the single run to stdout)")
	label := flag.String("label", "", "label for this run (e.g. a commit hash)")
	diffPath := flag.String("diff", "", "compare the trajectory file's latest run against its previous run and exit non-zero on regressions (ignores stdin)")
	flag.Parse()

	if *diffPath != "" {
		tr, err := loadTrajectory(*diffPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		report, flagged, err := diff(tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(report)
		if flagged {
			os.Exit(1)
		}
		return
	}

	doc, failed, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchjson: benchmark run reported FAIL")
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	doc.Label = *label
	doc.Commit = gitCommit()

	if *out == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}

	doc.RecordedAt = time.Now().UTC().Format(time.RFC3339)
	tr, err := loadTrajectory(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	tr.Runs = append(tr.Runs, doc)
	if err := writeTrajectory(*out, tr); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: recorded run %d in %s (%d benchmarks)\n",
		len(tr.Runs), *out, len(doc.Benchmarks))
}

// writeTrajectory replaces the trajectory file atomically (temp file +
// rename), so a crash or full disk mid-write can never destroy the
// recorded history it just loaded. Non-regular targets (/dev/null in the
// CI smoke, pipes) are written directly — there is no history to
// preserve and renaming over a device would replace it.
func writeTrajectory(path string, tr Trajectory) error {
	marshal := func(w *os.File) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(tr)
	}
	if fi, err := os.Stat(path); err == nil && !fi.Mode().IsRegular() {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_TRUNC, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		return marshal(f)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := marshal(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	// CreateTemp's 0600 would stick to the renamed file; the trajectory
	// is a shared, committed artifact.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// nsRegressionPct is the ns/op slowdown (in percent) beyond which -diff
// flags a benchmark. Wall-clock numbers are only comparable on one
// machine, so the threshold is suppressed entirely when the two runs
// report different CPU strings; allocation counts are deterministic and
// compared unconditionally.
const nsRegressionPct = 10.0

// benchKey identifies one benchmark across trajectory runs.
type benchKey struct{ pkg, name string }

// diff compares the trajectory's newest run against the one before it and
// renders a per-benchmark delta table. It returns flagged=true when the
// latest run regressed: ns/op more than nsRegressionPct slower (same-CPU
// runs only), or any allocs/op increase on a benchmark the previous run
// pinned at zero allocations.
func diff(tr Trajectory) (report string, flagged bool, err error) {
	if len(tr.Runs) < 2 {
		return "", false, fmt.Errorf("trajectory has %d run(s); -diff needs at least 2", len(tr.Runs))
	}
	prev, cur := tr.Runs[len(tr.Runs)-2], tr.Runs[len(tr.Runs)-1]
	prevBy := make(map[benchKey]Result, len(prev.Benchmarks))
	for _, r := range prev.Benchmarks {
		prevBy[benchKey{r.Package, r.Name}] = r
	}
	sameCPU := prev.CPU == cur.CPU

	var b strings.Builder
	fmt.Fprintf(&b, "benchjson diff: run %d (%s) vs run %d (%s)\n",
		len(tr.Runs)-1, runTag(prev), len(tr.Runs), runTag(cur))
	if !sameCPU {
		fmt.Fprintf(&b, "  CPUs differ (%q vs %q): ns/op regressions not flagged\n", prev.CPU, cur.CPU)
	}
	for _, r := range cur.Benchmarks {
		p, ok := prevBy[benchKey{r.Package, r.Name}]
		if !ok {
			fmt.Fprintf(&b, "  %-40s new benchmark\n", r.Name)
			continue
		}
		delete(prevBy, benchKey{r.Package, r.Name})
		line := fmt.Sprintf("  %-40s ns/op %12.0f -> %12.0f (%+.1f%%)",
			r.Name, p.NsPerOp, r.NsPerOp, pctDelta(p.NsPerOp, r.NsPerOp))
		var marks []string
		if sameCPU && pctDelta(p.NsPerOp, r.NsPerOp) > nsRegressionPct {
			flagged = true
			marks = append(marks, fmt.Sprintf("REGRESSION: ns/op up >%g%%", nsRegressionPct))
		}
		if p.AllocsPerOp != nil && r.AllocsPerOp != nil {
			line += fmt.Sprintf("  allocs/op %.0f -> %.0f", *p.AllocsPerOp, *r.AllocsPerOp)
			if *p.AllocsPerOp == 0 && *r.AllocsPerOp > 0 {
				flagged = true
				marks = append(marks, "REGRESSION: zero-alloc benchmark now allocates")
			}
		}
		b.WriteString(line)
		for _, m := range marks {
			b.WriteString("  [" + m + "]")
		}
		b.WriteByte('\n')
	}
	dropped := slices.SortedFunc(maps.Keys(prevBy), func(x, y benchKey) int {
		return cmp.Or(cmp.Compare(x.pkg, y.pkg), cmp.Compare(x.name, y.name))
	})
	for _, k := range dropped {
		fmt.Fprintf(&b, "  %-40s dropped (present in previous run only)\n", k.name)
	}
	return b.String(), flagged, nil
}

// pctDelta returns the percentage change from prev to cur.
func pctDelta(prev, cur float64) float64 {
	if prev == 0 {
		return 0
	}
	return (cur - prev) / prev * 100
}

// runTag renders a run's most specific identifier for the diff header.
func runTag(d Document) string {
	switch {
	case d.Label != "":
		return d.Label
	case d.Commit != "":
		return d.Commit
	case d.RecordedAt != "":
		return d.RecordedAt
	}
	return "unlabelled"
}

func parse(sc *bufio.Scanner) (Document, bool, error) {
	var doc Document
	var pkg string
	failed := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
		case strings.HasPrefix(line, "goos:") || strings.HasPrefix(line, "goarch:"):
			// context noise
		case strings.HasPrefix(line, "FAIL"):
			failed = true
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line, pkg); ok {
				doc.Benchmarks = append(doc.Benchmarks, r)
			}
		}
	}
	doc.Benchmarks = fold(doc.Benchmarks)
	return doc, failed, sc.Err()
}

// fold merges the results of one (package, name) — the lines
// `go test -count N` repeats — into a single Result carrying the median
// of each figure and the number of lines merged, in order of first
// appearance. A median of an even count averages the middle two.
func fold(results []Result) []Result {
	var order []benchKey
	groups := make(map[benchKey][]Result)
	for _, r := range results {
		k := benchKey{r.Package, r.Name}
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	out := make([]Result, 0, len(order))
	for _, k := range order {
		g := groups[k]
		r := g[0]
		r.Count = len(g)
		r.Iterations = int64(*median(g, func(r Result) *float64 { v := float64(r.Iterations); return &v }))
		r.NsPerOp = *median(g, func(r Result) *float64 { return &r.NsPerOp })
		r.BytesPerOp = median(g, func(r Result) *float64 { return r.BytesPerOp })
		r.AllocsPerOp = median(g, func(r Result) *float64 { return r.AllocsPerOp })
		out = append(out, r)
	}
	return out
}

// median returns the median of field over the results that report it,
// or nil when none does.
func median(g []Result, field func(Result) *float64) *float64 {
	var vs []float64
	for _, r := range g {
		if v := field(r); v != nil {
			vs = append(vs, *v)
		}
	}
	if len(vs) == 0 {
		return nil
	}
	sort.Float64s(vs)
	m := (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
	return &m
}

// parseBench parses one result line, e.g.
//
//	BenchmarkBuilderSparse-8   639954   2033 ns/op   0 B/op   0 allocs/op
func parseBench(line, pkg string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	r := Result{Package: pkg, Name: fields[0]}
	if i := strings.LastIndex(r.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Procs = procs
			r.Name = r.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iterations = iters
	// Remaining fields come in "<value> <unit>" pairs.
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			sawNs = true
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsPerOp = &a
		}
	}
	return r, sawNs
}
