package sched

import (
	"context"
	"testing"

	"barrierpoint/internal/cachestore"
	"barrierpoint/internal/core"
)

// artifactCodecs names every codec sched registers: the decoders a
// wire-shipped dependency and a cachestore file read back from disk
// reach.
var artifactCodecs = []string{
	"sched.baselineArtifact.v2", "core.LDVBaseline", "core.BarrierPointSet",
	"core.Collection", "core.StudyResult", "omp.MemTrace",
}

// FuzzArtifactDecode feeds cachestore.Decode arbitrary bytes under every
// artifact codec, seeded with each one's real encoding from an MCB
// 2-thread study. Decoding must succeed or fail, never panic; a decoded
// collection or set must then score against a valid counterpart, or fail
// to, without panicking, as it would in a study's assembly.
func FuzzArtifactDecode(f *testing.F) {
	req := testRequest(f)
	cfg := req.Config.WithDefaults()
	res, err := Run(context.Background(), req, Options{Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	set, base, err := core.DiscoverBaseline(req.Build, cfg.Discovery())
	if err != nil {
		f.Fatal(err)
	}
	_, mem, err := core.CollectMem(req.Build, cfg.Collections()[0], nil)
	if err != nil {
		f.Fatal(err)
	}
	for i, v := range []any{baselineArtifact{set: set, base: base}, base, set,
		res.X86Col, res, mem} {
		codec, data, err := cachestore.Encode(v)
		if err != nil {
			f.Fatal(err)
		}
		if codec != artifactCodecs[i] {
			f.Fatalf("seed %d encoded with %s, want %s", i, codec, artifactCodecs[i])
		}
		f.Add(uint8(i), data)
	}
	valid := res.Evals[res.Best].Set
	f.Fuzz(func(t *testing.T, codec uint8, data []byte) {
		v, err := cachestore.Decode(artifactCodecs[int(codec)%len(artifactCodecs)], data)
		if err != nil {
			return
		}
		switch v := v.(type) {
		case *core.Collection:
			core.EvaluateSet(req.App, 0, &valid, v, res.ARMCol)
			core.EvaluateSet(req.App, 0, &valid, res.X86Col, v)
		case core.BarrierPointSet:
			core.EvaluateSet(req.App, 0, &v, res.X86Col, res.ARMCol)
		}
	})
}
