package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the golden files from the current output instead of
// comparing against them: `go test ./internal/experiments -update`, or
// `make golden-update` for every golden in the repository.
var update = flag.Bool("update", false, "rewrite testdata/<test>/<experiment>.golden from the current output")

// checkGolden compares an experiment's rendered bytes against
// testdata/<test>/<experiment>.golden and reports the first differing
// line.
func checkGolden(t *testing.T, experiment string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", t.Name(), experiment+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (regenerate with -update)", experiment, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s differs from %s at line %d:\n got: %q\nwant: %q", experiment, path, i+1, g, w)
			return
		}
	}
}

// renderGolden runs the named experiments on r in order and compares
// each one's output against its golden.
func renderGolden(t *testing.T, r *Runner, names ...string) {
	t.Helper()
	for _, name := range names {
		e, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := e.Run(r, &b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkGolden(t, name, b.Bytes())
	}
}
