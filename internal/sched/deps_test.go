package sched

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

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

// TestUnitRequestDepsRoundTrip: a jittered unit and a validate unit
// shipped with their dependency artifacts in Deps execute on a cold
// wire-path worker without resolving any dependency, produce exactly the
// artifact the in-band path does, and are ErrBadUnit once Deps is
// stripped. The JSON round trip stands in for the wire: it drops every
// in-band field and keeps Deps.
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
	validate := UnitRequest{
		Kind: UnitValidate, App: req.App, FP: fpX86, FPARM: fpARM,
		Discovery: &discCfg, Run: 1, Collections: &colCfgs,
		Build: req.Build, Set: &set, Cols: cols,
	}

	for _, tc := range []struct {
		unit UnitRequest
		want any
	}{
		{jittered, want.Evals[1].Set},
		{validate, want.Evals[1]},
	} {
		t.Run(string(tc.unit.Kind), func(t *testing.T) {
			unit := tc.unit
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
			if wired.Build != nil || wired.Base != nil || wired.Set != nil || wired.Cols != [2]*core.Collection{} {
				t.Fatal("in-band fields leaked onto the wire")
			}

			worker := &LocalExecutor{Cache: resultcache.New(64)}
			got, spans := cacheSpans(t, worker, wired)
			for name, n := range spans {
				if strings.HasPrefix(name, "cache:") && name != "cache:"+string(unit.Kind) {
					t.Errorf("cold worker resolved dependency %s %d times", name, n)
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("wire-path %s unit diverges from the in-band study", unit.Kind)
			}
			if key, _ := unit.Key(); unit.Kind == UnitDiscoverJittered {
				if _, ok := worker.Cache.Get(key); ok {
					t.Error("wire-path jittered set cached under a key its coordinates alone name")
				}
			}

			wired.Deps = nil
			if _, err := (&LocalExecutor{}).ExecuteUnit(context.Background(), wired); !errors.Is(err, ErrBadUnit) {
				t.Errorf("%s unit without Deps: want ErrBadUnit, got %v", unit.Kind, err)
			}
		})
	}
}
