package experiments

import (
	"bytes"
	"io"
	"testing"

	"barrierpoint/internal/golden"
	"barrierpoint/internal/sched"
)

// renderGolden declares the named experiments on r, executes their plan,
// and renders each one, comparing its output against
// testdata/<test>/<experiment>.golden: `go test ./internal/experiments
// -update` rewrites them, and `make golden-update` rewrites every golden
// in the repository. Rendering must not miss the cache: an experiment
// reads only what it declared. It returns the plan's accounting.
func renderGolden(t *testing.T, r *Runner, names ...string) sched.PlanStats {
	t.Helper()
	renders := make([]func(w io.Writer) error, len(names))
	for i, name := range names {
		e, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		renders[i] = e.Run(r)
	}
	stats, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	misses := r.CacheStats().Misses
	for i, render := range renders {
		var b bytes.Buffer
		if err := render(&b); err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		golden.Check(t, names[i]+".golden", b.Bytes())
	}
	if n := r.CacheStats().Misses - misses; n != 0 {
		t.Errorf("rendering %v after the plan missed the cache %d times", names, n)
	}
	return stats
}
