package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: barrierpoint/internal/sigvec
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkBuildReference 	  159424	      7055 ns/op	    4608 B/op	       6 allocs/op
BenchmarkBuilderSparse-8  	  639954	      2033 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	barrierpoint/internal/sigvec	3.1s
pkg: barrierpoint/internal/mem
BenchmarkStackDistAccess 	32065758	        74.74 ns/op
PASS
ok  	barrierpoint/internal/mem	2.4s
`

func TestParse(t *testing.T) {
	doc, failed, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil || failed {
		t.Fatalf("err=%v failed=%v", err, failed)
	}
	if doc.CPU == "" {
		t.Error("cpu line not captured")
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	ref := doc.Benchmarks[0]
	if ref.Name != "BenchmarkBuildReference" || ref.Package != "barrierpoint/internal/sigvec" ||
		ref.Iterations != 159424 || ref.NsPerOp != 7055 ||
		ref.BytesPerOp == nil || *ref.BytesPerOp != 4608 ||
		ref.AllocsPerOp == nil || *ref.AllocsPerOp != 6 {
		t.Errorf("reference line parsed as %+v", ref)
	}
	sparse := doc.Benchmarks[1]
	if sparse.Name != "BenchmarkBuilderSparse" || sparse.Procs != 8 ||
		sparse.AllocsPerOp == nil || *sparse.AllocsPerOp != 0 {
		t.Errorf("-8 suffix line parsed as %+v", sparse)
	}
	mem := doc.Benchmarks[2]
	if mem.Package != "barrierpoint/internal/mem" || mem.NsPerOp != 74.74 || mem.BytesPerOp != nil {
		t.Errorf("no-benchmem line parsed as %+v", mem)
	}
}

func TestParseFail(t *testing.T) {
	_, failed, err := parse(bufio.NewScanner(strings.NewReader("FAIL\tbarrierpoint\t1s\n")))
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Error("FAIL line must be reported")
	}
}

// TestLoadTrajectory pins the append semantics: a missing or empty file
// starts fresh, a legacy single-run document becomes the trajectory's
// first entry (so committed history survives the format change), an
// existing trajectory is returned as-is, and garbage is an error rather
// than a silent overwrite.
func TestLoadTrajectory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")

	tr, err := loadTrajectory(path)
	if err != nil || len(tr.Runs) != 0 {
		t.Fatalf("missing file: runs=%d err=%v", len(tr.Runs), err)
	}

	legacy := `{"cpu":"test-cpu","benchmarks":[{"name":"BenchmarkX","iterations":1,"ns_per_op":2}]}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err = loadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Runs) != 1 || tr.Runs[0].CPU != "test-cpu" || len(tr.Runs[0].Benchmarks) != 1 {
		t.Fatalf("legacy document not wrapped: %+v", tr)
	}

	tr.Runs = append(tr.Runs, Document{Label: "second", Benchmarks: tr.Runs[0].Benchmarks})
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err = loadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Runs) != 2 || tr.Runs[1].Label != "second" {
		t.Fatalf("trajectory round-trip lost runs: %+v", tr)
	}

	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTrajectory(path); err == nil {
		t.Error("garbage trajectory file must error, not be overwritten")
	}
}

// fp returns a *float64 literal for building Result fixtures.
func fp(v float64) *float64 { return &v }

// run builds a one-CPU trajectory entry over the given benchmarks.
func run(cpu string, benchmarks ...Result) Document {
	return Document{CPU: cpu, Benchmarks: benchmarks}
}

func TestDiffNeedsTwoRuns(t *testing.T) {
	if _, _, err := diff(Trajectory{Runs: []Document{run("c")}}); err == nil {
		t.Error("single-run trajectory must error")
	}
}

// TestDiffFlagsNsRegression: >10% ns/op slowdown on the same CPU is
// flagged; an improvement and a within-threshold change are not.
func TestDiffFlagsNsRegression(t *testing.T) {
	tr := Trajectory{Runs: []Document{
		run("cpu0",
			Result{Name: "BenchmarkSlow", NsPerOp: 100},
			Result{Name: "BenchmarkOK", NsPerOp: 100},
			Result{Name: "BenchmarkFast", NsPerOp: 100}),
		run("cpu0",
			Result{Name: "BenchmarkSlow", NsPerOp: 111},
			Result{Name: "BenchmarkOK", NsPerOp: 109},
			Result{Name: "BenchmarkFast", NsPerOp: 50}),
	}}
	report, flagged, err := diff(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !flagged {
		t.Error("11% ns/op regression not flagged")
	}
	if !strings.Contains(report, "BenchmarkSlow") || strings.Count(report, "REGRESSION") != 1 {
		t.Errorf("report flags the wrong benchmarks:\n%s", report)
	}
}

// TestDiffSuppressesNsAcrossCPUs: wall-clock comparisons across different
// machines are meaningless, so a huge ns/op delta with differing CPU
// strings is reported but not flagged — while an alloc regression in the
// same pair still is.
func TestDiffSuppressesNsAcrossCPUs(t *testing.T) {
	tr := Trajectory{Runs: []Document{
		run("cpu0", Result{Name: "BenchmarkX", NsPerOp: 100, AllocsPerOp: fp(0)}),
		run("cpu1", Result{Name: "BenchmarkX", NsPerOp: 900, AllocsPerOp: fp(0)}),
	}}
	report, flagged, err := diff(tr)
	if err != nil {
		t.Fatal(err)
	}
	if flagged {
		t.Errorf("cross-CPU ns delta flagged:\n%s", report)
	}

	tr.Runs[1].Benchmarks[0].AllocsPerOp = fp(3)
	report, flagged, err = diff(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !flagged || !strings.Contains(report, "now allocates") {
		t.Errorf("alloc regression must be flagged even across CPUs:\n%s", report)
	}
}

// TestDiffFlagsZeroAllocRegression: any allocs/op increase on a
// previously zero-alloc benchmark is flagged; a nonzero->bigger change is
// reported but not flagged (the pinned contract is zero, not monotone).
func TestDiffFlagsZeroAllocRegression(t *testing.T) {
	tr := Trajectory{Runs: []Document{
		run("cpu0",
			Result{Name: "BenchmarkPinned", NsPerOp: 10, AllocsPerOp: fp(0)},
			Result{Name: "BenchmarkLoose", NsPerOp: 10, AllocsPerOp: fp(5)}),
		run("cpu0",
			Result{Name: "BenchmarkPinned", NsPerOp: 10, AllocsPerOp: fp(1)},
			Result{Name: "BenchmarkLoose", NsPerOp: 10, AllocsPerOp: fp(9)}),
	}}
	report, flagged, err := diff(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !flagged || strings.Count(report, "REGRESSION") != 1 || !strings.Contains(report, "BenchmarkPinned") {
		t.Errorf("zero-alloc pin not enforced correctly:\n%s", report)
	}
}

// TestDiffNewAndDroppedBenchmarks: additions and removals are reported
// informationally, never flagged.
func TestDiffNewAndDroppedBenchmarks(t *testing.T) {
	tr := Trajectory{Runs: []Document{
		run("cpu0", Result{Name: "BenchmarkOld", NsPerOp: 10}),
		run("cpu0", Result{Name: "BenchmarkNew", NsPerOp: 10}),
	}}
	report, flagged, err := diff(tr)
	if err != nil {
		t.Fatal(err)
	}
	if flagged {
		t.Errorf("membership change flagged:\n%s", report)
	}
	if !strings.Contains(report, "new benchmark") || !strings.Contains(report, "dropped") {
		t.Errorf("membership change not reported:\n%s", report)
	}
}

// TestWriteTrajectoryRoundTrip: the atomic write lands a loadable file
// and leaves no temp litter behind.
func TestWriteTrajectoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	want := Trajectory{Runs: []Document{{Label: "r1", Benchmarks: []Result{{Name: "BenchmarkX", Iterations: 1, NsPerOp: 2}}}}}
	if err := writeTrajectory(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := loadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 1 || got.Runs[0].Label != "r1" {
		t.Fatalf("round-trip lost the run: %+v", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after write, want just the trajectory", len(entries))
	}
}

// countSample is `go test -count` output: three lines of one benchmark,
// four of another, and a same-named benchmark in a second package.
const countSample = `pkg: barrierpoint
cpu: test-cpu
BenchmarkOdd-2   	5	 300 ns/op	  30 B/op	 3 allocs/op
BenchmarkOdd-2   	5	 100 ns/op	  10 B/op	 1 allocs/op
BenchmarkOdd-2   	5	 200 ns/op	  20 B/op	 2 allocs/op
BenchmarkEven-2  	4	 100 ns/op	1000 B/op	 1 allocs/op
BenchmarkEven-2  	6	 400 ns/op	4000 B/op	 2 allocs/op
BenchmarkEven-2  	8	 200 ns/op	2000 B/op	 2 allocs/op
BenchmarkEven-2  	10	 300 ns/op	9000 B/op	 9 allocs/op
pkg: barrierpoint/internal/mem
BenchmarkOdd-2   	5	 900 ns/op
PASS
`

// TestParseFoldsCounts: repeated lines of one (package, name) fold into
// one entry holding the median of every figure — the middle value of an
// odd count, the mean of the middle two of an even one — in order of
// first appearance, and the same name in another package stays apart.
func TestParseFoldsCounts(t *testing.T) {
	doc, failed, err := parse(bufio.NewScanner(strings.NewReader(countSample)))
	if err != nil || failed {
		t.Fatalf("err=%v failed=%v", err, failed)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("folded into %d entries, want 3: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	odd, even, other := doc.Benchmarks[0], doc.Benchmarks[1], doc.Benchmarks[2]
	if odd.Name != "BenchmarkOdd" || odd.Package != "barrierpoint" || odd.Count != 3 ||
		odd.Iterations != 5 || odd.NsPerOp != 200 || *odd.BytesPerOp != 20 || *odd.AllocsPerOp != 2 {
		t.Errorf("odd count folded as %+v", odd)
	}
	if even.Name != "BenchmarkEven" || even.Count != 4 || even.Iterations != 7 ||
		even.NsPerOp != 250 || *even.BytesPerOp != 3000 || *even.AllocsPerOp != 2 {
		t.Errorf("even count folded as %+v", even)
	}
	if other.Package != "barrierpoint/internal/mem" || other.Count != 1 || other.NsPerOp != 900 ||
		other.BytesPerOp != nil || other.AllocsPerOp != nil {
		t.Errorf("single line in another package folded as %+v", other)
	}
}

// TestDiffOverFoldedCounts: -diff compares the medians of -count runs,
// so one slow count does not flag a benchmark whose median held, and a
// median that moved more than the threshold still does.
func TestDiffOverFoldedCounts(t *testing.T) {
	parseRun := func(lines string) Document {
		t.Helper()
		doc, _, err := parse(bufio.NewScanner(strings.NewReader("cpu: cpu0\n" + lines)))
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	prev := parseRun("BenchmarkX 5 100 ns/op\nBenchmarkX 5 102 ns/op\nBenchmarkX 5 98 ns/op\n")
	outlier := parseRun("BenchmarkX 5 101 ns/op\nBenchmarkX 5 99 ns/op\nBenchmarkX 5 400 ns/op\n")
	report, flagged, err := diff(Trajectory{Runs: []Document{prev, outlier}})
	if err != nil {
		t.Fatal(err)
	}
	if flagged || strings.Count(report, "BenchmarkX") != 1 {
		t.Errorf("a slow last count flagged a held median:\n%s", report)
	}
	slower := parseRun("BenchmarkX 5 120 ns/op\nBenchmarkX 5 99 ns/op\nBenchmarkX 5 125 ns/op\n")
	report, flagged, err = diff(Trajectory{Runs: []Document{prev, slower}})
	if err != nil {
		t.Fatal(err)
	}
	if !flagged || !strings.Contains(report, "+20.0%") {
		t.Errorf("a 20%% median regression not flagged:\n%s", report)
	}
}
