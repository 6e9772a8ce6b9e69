package service

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"barrierpoint/internal/cachestore"
	"barrierpoint/internal/core"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/sched"
)

// wireUnits are POST /units requests for distStudy's configuration as a
// coordinator ships them, coordinates plus serialised dependency
// artifacts, and two probes whose artifacts decode but are malformed.
type wireUnits struct {
	// jittered is discovery run 1 with its LDV baseline; validate scores
	// the baseline run's set against both collections.
	jittered, validate sched.UnitRequest
	// hugeBaseline ships a baseline claiming 2^32 rows of 2^32 floats
	// with none attached, whose n×dim overflows to the carried length.
	hugeBaseline sched.UnitRequest
	// noStd ships an x86_64 collection whose PerBPStd is nil.
	noStd sched.UnitRequest
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
		jittered: sched.UnitRequest{
			Kind: sched.UnitDiscoverJittered, App: study.App, Discovery: &disc, Run: 1,
			Deps: []sched.InlineArtifact{artifact(tb, base)},
		},
		validate: sched.UnitRequest{
			Kind: sched.UnitValidate, App: study.App, Discovery: &disc, Collections: &colCfgs,
			Deps: []sched.InlineArtifact{artifact(tb, set), artifact(tb, cols[0]), artifact(tb, cols[1])},
		},
	}
	var raw bytes.Buffer
	if err := gob.NewEncoder(&raw).Encode(rawBaseline{N: 1 << 32, Dim: 1 << 32}); err != nil {
		tb.Fatal(err)
	}
	u.hugeBaseline = u.jittered
	u.hugeBaseline.Deps = []sched.InlineArtifact{{Codec: u.jittered.Deps[0].Codec, Data: raw.Bytes()}}
	noStd := *cols[0]
	noStd.PerBPStd = nil
	u.noStd = u.validate
	u.noStd.Deps = []sched.InlineArtifact{u.validate.Deps[0], artifact(tb, &noStd), u.validate.Deps[2]}
	return u
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

// TestWorkerMalformedCollectionFails: a validate unit whose x86_64
// collection does not cover its threads is a failed computation (422),
// not a handler panic the coordinator would read as EOF and answer by
// quarantining a healthy worker.
func TestWorkerMalformedCollectionFails(t *testing.T) {
	w := newTestWorker(t)
	resp, err := http.Post(w.URL+"/units", "application/json",
		bytes.NewReader(unitBody(t, newWireUnits(t).noStd)))
	if err != nil {
		t.Fatalf("transport error instead of a status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != sched.StatusUnitFailed {
		body, _ := io.ReadAll(resp.Body)
		t.Errorf("status %d (%s), want %d", resp.StatusCode, bytes.TrimSpace(body), sched.StatusUnitFailed)
	}
}

// FuzzWorkerUnit feeds arbitrary POST /units bodies straight to the
// worker's handler — no net/http server, so no panic recovery — and fails
// on a panic or on any status outside the unit protocol's 200, 409, 422
// and 429.
func FuzzWorkerUnit(f *testing.F) {
	u := newWireUnits(f)
	for _, req := range []sched.UnitRequest{u.jittered, u.validate, u.hugeBaseline, u.noStd} {
		f.Add(unitBody(f, req))
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
