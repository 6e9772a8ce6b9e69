package sched

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"barrierpoint/internal/cachestore"
	"barrierpoint/internal/core"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/resultcache"
)

// cacheSpans executes req on worker under a trace and returns the
// artifact plus how many times each span name was recorded below the
// unit ("cache:<kind>" for every cache resolution).
func cacheSpans(t *testing.T, worker *LocalExecutor, req UnitRequest) (any, map[string]int) {
	t.Helper()
	jt := obs.NewJobTrace("t", 0)
	root := jt.Root("unit")
	ctx := obs.ContextWithSpan(context.Background(), root)
	v, err := worker.ExecuteUnit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	counts := map[string]int{}
	var walk func(ns []*obs.SpanNode)
	walk = func(ns []*obs.SpanNode) {
		for _, n := range ns {
			counts[n.Name]++
			walk(n.Children)
		}
	}
	walk(jt.Tree().Spans)
	return v, counts
}

// TestUnitRequestDepsRoundTrip: a jittered unit shipped with its LDV
// baseline in Deps executes on a cold wire-path worker without resolving
// any dependency, produces exactly the artifact the in-band path does,
// and is ErrBadUnit once Deps is stripped. A validate unit, as a
// coordinator that shipped set scoring to workers sent it, is ErrBadUnit
// with or without its artifacts: validation is a study's assembly step,
// not a unit kind. The JSON round trip stands in for the wire: it drops
// every in-band field and keeps Deps.
func TestUnitRequestDepsRoundTrip(t *testing.T) {
	req := testRequest(t)
	cfg := req.Config.WithDefaults()
	discCfg := cfg.Discovery()
	colCfgs := cfg.Collections()
	fpX86, err := fingerprint(req.App, req.Build, cfg.Threads, colCfgs[0].Variant)
	if err != nil {
		t.Fatal(err)
	}
	fpARM, err := fingerprint(req.App, req.Build, cfg.Threads, colCfgs[1].Variant)
	if err != nil {
		t.Fatal(err)
	}
	// The reference: the study the coordinator's in-band path runs.
	want, err := Run(context.Background(), req, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	// The coordinator's side holds every dependency in-band.
	coord := &LocalExecutor{}
	exec := func(u UnitRequest) any {
		t.Helper()
		v, err := coord.ExecuteUnit(context.Background(), u)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	base := exec(UnitRequest{
		Kind: UnitDiscoverBaseline, App: req.App, FP: fpX86, Discovery: &discCfg, Build: req.Build,
	}).(baselineArtifact)
	var cols [2]*core.Collection
	for i, fp := range []string{fpX86, fpARM} {
		cols[i] = exec(UnitRequest{
			Kind: UnitCollect, App: req.App, FP: fp, Collect: &colCfgs[i], Build: req.Build,
		}).(*core.Collection)
	}
	jittered := UnitRequest{
		Kind: UnitDiscoverJittered, App: req.App, FP: fpX86,
		Discovery: &discCfg, Run: 1, Build: req.Build, Base: base.base,
	}
	set := exec(jittered).(core.BarrierPointSet)
	if !reflect.DeepEqual(set, want.Evals[1].Set) {
		t.Error("in-band jittered unit diverges from the study")
	}

	// wire ships a unit the way RemoteExecutor would, its in-band
	// dependencies serialised into Deps.
	wire := func(unit UnitRequest) UnitRequest {
		t.Helper()
		if err := unit.encodeDeps(); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(unit)
		if err != nil {
			t.Fatal(err)
		}
		var wired UnitRequest
		if err := json.Unmarshal(data, &wired); err != nil {
			t.Fatal(err)
		}
		if wired.Build != nil || wired.Base != nil {
			t.Fatal("in-band fields leaked onto the wire")
		}
		return wired
	}

	t.Run(string(UnitDiscoverJittered), func(t *testing.T) {
		wired := wire(jittered)
		worker := &LocalExecutor{Cache: resultcache.New(64)}
		got, spans := cacheSpans(t, worker, wired)
		for name, n := range spans {
			if strings.HasPrefix(name, "cache:") && name != "cache:"+string(UnitDiscoverJittered) {
				t.Errorf("cold worker resolved dependency %s %d times", name, n)
			}
		}
		if !reflect.DeepEqual(got, want.Evals[1].Set) {
			t.Error("wire-path jittered unit diverges from the in-band study")
		}
		key, _ := jittered.Key()
		if _, ok := worker.Cache.Get(key); ok {
			t.Error("wire-path jittered set cached under a key its coordinates alone name")
		}
		wired.Deps = nil
		if _, err := (&LocalExecutor{}).ExecuteUnit(context.Background(), wired); !errors.Is(err, ErrBadUnit) {
			t.Errorf("jittered unit without Deps: want ErrBadUnit, got %v", err)
		}
	})

	t.Run("validate", func(t *testing.T) {
		deps := make([]InlineArtifact, 3)
		for i, v := range []any{set, cols[0], cols[1]} {
			codec, data, err := cachestore.Encode(v)
			if err != nil {
				t.Fatal(err)
			}
			deps[i] = InlineArtifact{Codec: codec, Data: data}
		}
		body, err := json.Marshal(map[string]any{
			"kind": "validate", "app": req.App, "fp": fpX86, "fp_arm": fpARM,
			"discovery": discCfg, "run": 1, "collections": colCfgs, "deps": deps,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wired UnitRequest
		if err := json.Unmarshal(body, &wired); err != nil {
			t.Fatal(err)
		}
		for _, deps := range [][]InlineArtifact{wired.Deps, nil} {
			wired.Deps = deps
			if _, err := (&LocalExecutor{}).ExecuteUnit(context.Background(), wired); !errors.Is(err, ErrBadUnit) {
				t.Errorf("wire validate unit with %d deps: want ErrBadUnit, got %v", len(deps), err)
			}
		}
	})
}

// encodeHistoryEnv turns the test binary into the helper of
// TestWireJitteredKeyIgnoresEncodeHistory: "<history>:<path>" writes to
// path the LDV baseline of testRequest's study as a coordinator ships it
// in a jittered unit, encoded first in the process (history "fresh") or
// after a core.Collection ("after-collection").
const encodeHistoryEnv = "BP_SCHED_ENCODE_HISTORY"

// TestWireJitteredKeyIgnoresEncodeHistory: a worker keys a shipped
// jittered unit by its baseline's content. gob numbers types in the order
// a process first encodes them, so one baseline ships as different bytes
// from a coordinator that encoded it first and from one that encoded a
// collection before; the test takes both encodings from fresh helper
// processes, and the worker must compute the run once for the two. A
// baseline one bit off is another run.
func TestWireJitteredKeyIgnoresEncodeHistory(t *testing.T) {
	req := testRequest(t)
	discCfg := req.Config.WithDefaults().Discovery()
	if spec := os.Getenv(encodeHistoryEnv); spec != "" {
		history, path, _ := strings.Cut(spec, ":")
		_, base, err := core.DiscoverBaseline(req.Build, discCfg)
		if err != nil {
			t.Fatal(err)
		}
		if history == "after-collection" {
			if _, _, err := cachestore.Encode(&core.Collection{}); err != nil {
				t.Fatal(err)
			}
		}
		var dep InlineArtifact
		if dep.Codec, dep.Data, err = cachestore.Encode(base); err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(dep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	var shipped []InlineArtifact
	for _, history := range []string{"fresh", "after-collection"} {
		path := filepath.Join(t.TempDir(), history)
		cmd := exec.Command(os.Args[0], "-test.run=^TestWireJitteredKeyIgnoresEncodeHistory$")
		cmd.Env = append(os.Environ(), encodeHistoryEnv+"="+history+":"+path)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s helper: %v\n%s", history, err, out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var dep InlineArtifact
		if err := json.Unmarshal(data, &dep); err != nil {
			t.Fatal(err)
		}
		shipped = append(shipped, dep)
	}
	if bytes.Equal(shipped[0].Data, shipped[1].Data) {
		t.Fatal("both encode histories gave the same bytes: the test no longer shows the difference it guards")
	}

	// The same rows with one bit of one float flipped, through a mirror of
	// the baseline's wire shape.
	v, err := cachestore.Decode(shipped[0].Codec, shipped[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := v.(*core.LDVBaseline).GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var rows struct {
		N, Dim int
		Proj   []float64
	}
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&rows); err != nil || len(rows.Proj) == 0 {
		t.Fatalf("decoding the baseline's rows: %v (%d floats)", err, len(rows.Proj))
	}
	rows.Proj[0] = math.Float64frombits(math.Float64bits(rows.Proj[0]) ^ 1)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rows); err != nil {
		t.Fatal(err)
	}
	flipped := new(core.LDVBaseline)
	if err := flipped.GobDecode(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var dep InlineArtifact
	if dep.Codec, dep.Data, err = cachestore.Encode(flipped); err != nil {
		t.Fatal(err)
	}
	shipped = append(shipped, dep)

	worker := &LocalExecutor{Cache: resultcache.New(64)}
	for i, dep := range shipped {
		unit := UnitRequest{Kind: UnitDiscoverJittered, App: req.App, Discovery: &discCfg, Run: 1, Deps: []InlineArtifact{dep}}
		if _, err := worker.ExecuteUnit(context.Background(), unit); err != nil {
			t.Fatal(err)
		}
		if want := []uint64{1, 1, 2}[i]; worker.Cache.Stats().Misses != want {
			t.Fatalf("after %d shipped baselines the worker computed %d runs, want %d",
				i+1, worker.Cache.Stats().Misses, want)
		}
	}
}
