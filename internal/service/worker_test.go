package service

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"barrierpoint/internal/apps"
	"barrierpoint/internal/cachestore"
	"barrierpoint/internal/core"
	"barrierpoint/internal/isa"
	"barrierpoint/internal/machine"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/sched"
)

// wireUnits are POST /units requests for distStudy's configuration:
// units as a coordinator ships them, coordinates plus serialised
// dependency artifacts; validate bodies, which no coordinator ships any
// more; and a probe whose artifact decodes but is malformed.
type wireUnits struct {
	// collect is the x86_64 collection; jittered is discovery run 1 with
	// its LDV baseline.
	collect, jittered sched.UnitRequest
	// set is the baseline run's set as a dependency artifact.
	set sched.InlineArtifact
	// validate and validateBare score the baseline run's set the way a
	// coordinator that shipped set scoring to workers sent them, with
	// the set and both collections in deps and without: 409s, since
	// validation is a study's assembly step, not a unit kind.
	validate, validateBare []byte
	// hugeBaseline ships a baseline claiming 2^32 rows of 2^32 floats
	// with none attached, whose n×dim overflows to the carried length.
	hugeBaseline sched.UnitRequest
	// sparc, emptyMachine and noVector are the collect unit with a
	// platform that cannot be resolved: an ISA no platform executes, a
	// machine override without its ISA and CPU model ("Machine":{}), and
	// a vectorised variant whose x86_64 ISA has a zero vector width.
	sparc, emptyMachine, noVector sched.UnitRequest
}

// artifact serialises v the way the coordinator attaches a dependency.
func artifact(tb testing.TB, v any) sched.InlineArtifact {
	tb.Helper()
	codec, data, err := cachestore.Encode(v)
	if err != nil {
		tb.Fatal(err)
	}
	return sched.InlineArtifact{Codec: codec, Data: data}
}

// rawBaseline gob-encodes arbitrary LDV baseline wire data, bypassing
// the shape LDVBaseline's own encoder guarantees.
type rawBaseline struct {
	N, Dim int
	Proj   []float64
}

func (b rawBaseline) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		N, Dim int
		Proj   []float64
	}{b.N, b.Dim, b.Proj})
	return buf.Bytes(), err
}

func newWireUnits(tb testing.TB) wireUnits {
	tb.Helper()
	study := distStudy(tb)
	cfg := study.Config.WithDefaults()
	disc, colCfgs := cfg.Discovery(), cfg.Collections()
	set, base, err := core.DiscoverBaseline(study.Build, disc)
	if err != nil {
		tb.Fatal(err)
	}
	var cols [2]*core.Collection
	for i := range colCfgs {
		if cols[i], err = core.Collect(study.Build, colCfgs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	u := wireUnits{
		collect: sched.UnitRequest{Kind: sched.UnitCollect, App: study.App, Collect: &colCfgs[0]},
		jittered: sched.UnitRequest{
			Kind: sched.UnitDiscoverJittered, App: study.App, Discovery: &disc, Run: 1,
			Deps: []sched.InlineArtifact{artifact(tb, base)},
		},
		set: artifact(tb, set),
	}
	u.validate = validateBody(tb, study.App, disc, colCfgs, u.set, artifact(tb, cols[0]), artifact(tb, cols[1]))
	u.validateBare = validateBody(tb, study.App, disc, colCfgs)
	var raw bytes.Buffer
	if err := gob.NewEncoder(&raw).Encode(rawBaseline{N: 1 << 32, Dim: 1 << 32}); err != nil {
		tb.Fatal(err)
	}
	u.hugeBaseline = u.jittered
	u.hugeBaseline.Deps = []sched.InlineArtifact{{Codec: u.jittered.Deps[0].Codec, Data: raw.Bytes()}}
	sparc, emptyMachine, noVector := colCfgs[0], colCfgs[0], colCfgs[0]
	sparc.Variant.ISA = &isa.ISA{Name: "sparc", VectorBits: 128, Expand: isa.X8664().Expand}
	emptyMachine.Machine = &machine.Machine{}
	noVector.Variant = isa.Variant{ISA: isa.X8664(), Vectorised: true}
	noVector.Variant.ISA.VectorBits = 0
	u.sparc, u.emptyMachine, u.noVector = u.collect, u.collect, u.collect
	u.sparc.Collect, u.emptyMachine.Collect, u.noVector.Collect = &sparc, &emptyMachine, &noVector
	return u
}

// validateBody renders a validate unit as a coordinator that shipped set
// scoring to workers sent it: the set's discovery configuration, both
// collection configurations, the ARMv8 fingerprint and the given
// dependency artifacts.
func validateBody(tb testing.TB, app string, disc core.DiscoveryConfig, cols [2]core.CollectConfig, deps ...sched.InlineArtifact) []byte {
	tb.Helper()
	var fields [3][]byte
	for i, v := range []any{disc, cols, deps} {
		var err error
		if fields[i], err = json.Marshal(v); err != nil {
			tb.Fatal(err)
		}
	}
	return []byte(fmt.Sprintf(`{"kind":"validate","app":%q,"fp_arm":"0123456789abcdef","discovery":%s,"collections":%s,"deps":%s}`,
		app, fields[0], fields[1], fields[2]))
}

// unitBody renders a unit request as a POST /units body.
func unitBody(tb testing.TB, req sched.UnitRequest) []byte {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestWorkerBodyBoundFitsLargestUnit: the largest body a coordinator
// sends, an 8-thread LULESH jittered unit carrying its LDV baseline (the
// registry's largest at the default signature dimension), stays under a
// quarter of maxUnitBytes.
func TestWorkerBodyBoundFitsLargestUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("discovers LULESH at 8 threads")
	}
	a, err := apps.ByName("LULESH")
	if err != nil {
		t.Fatal(err)
	}
	disc := core.DefaultDiscovery(8, false, 1).WithDefaults()
	_, base, err := core.DiscoverBaseline(a.Build, disc)
	if err != nil {
		t.Fatal(err)
	}
	body := unitBody(t, sched.UnitRequest{
		Kind: sched.UnitDiscoverJittered, App: a.Name, Discovery: &disc, Run: 1,
		Deps: []sched.InlineArtifact{artifact(t, base)},
	})
	t.Logf("LULESH 8-thread jittered body: %d bytes", len(body))
	if len(body) >= maxUnitBytes/4 {
		t.Errorf("LULESH 8-thread jittered body is %d bytes, want under a quarter of the %d-byte bound", len(body), maxUnitBytes)
	}
}

// FuzzWorkerUnit feeds arbitrary POST /units bodies straight to the
// worker's handler — no net/http server, so no panic recovery — and fails
// on a panic or on any status outside the unit protocol's 200, 409, 422
// and 429.
func FuzzWorkerUnit(f *testing.F) {
	u := newWireUnits(f)
	for _, body := range [][]byte{unitBody(f, u.collect), unitBody(f, u.jittered), u.validate, unitBody(f, u.hugeBaseline),
		unitBody(f, u.sparc), unitBody(f, u.emptyMachine), unitBody(f, u.noVector)} {
		f.Add(body)
	}
	w, err := NewWorker(WorkerConfig{MaxInflight: 4, CacheSize: 64, Log: obs.NewLogger(io.Discard, obs.LevelError, 16)})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { w.Close() })
	h := w.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/units", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, sched.StatusUnitRejected, sched.StatusUnitFailed, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
