package experiments

import (
	"bytes"
	"testing"

	"barrierpoint/internal/golden"
)

// renderGolden runs the named experiments on r in order and compares
// each one's output against testdata/<test>/<experiment>.golden:
// `go test ./internal/experiments -update` rewrites them, and `make
// golden-update` rewrites every golden in the repository.
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
		golden.Check(t, name+".golden", b.Bytes())
	}
}
