package sched

import (
	"bytes"
	"encoding/gob"

	"barrierpoint/internal/cachestore"
	"barrierpoint/internal/core"
)

// The scheduler owns the cache keys, so it also owns the codec
// registrations for every artifact it memoises: a store-backed cache can
// spill and reload exactly the values sched.Run produces. The experiments
// Runner's whole-study entries reuse the core.StudyResult codec.
func init() {
	// .v2: the baseline artifact's LDV rows changed from raw binned LDVs
	// to projected rows. The codec name doubles as the wire-format
	// version, so entries written by older builds are orphaned (and
	// recomputed) rather than misdecoded.
	cachestore.RegisterGob[baselineArtifact]("sched.baselineArtifact.v2")
	// A jittered unit ships only the baseline half of that artifact.
	cachestore.RegisterGob[*core.LDVBaseline]("core.LDVBaseline")
	cachestore.RegisterGob[core.BarrierPointSet]("core.BarrierPointSet")
	cachestore.RegisterGob[*core.Collection]("core.Collection")
	cachestore.RegisterGob[*core.StudyResult]("core.StudyResult")
	// SetEvaluation artifacts travel the distributed unit protocol
	// (validate units) even though the local path never caches them.
	cachestore.RegisterGob[core.SetEvaluation]("core.SetEvaluation")
}

// baselineArtifactGob is the wire shape of a baselineArtifact (whose
// fields are unexported).
type baselineArtifactGob struct {
	Set  core.BarrierPointSet
	Base *core.LDVBaseline
}

// GobEncode implements gob.GobEncoder.
func (a baselineArtifact) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(baselineArtifactGob{Set: a.set, Base: a.base})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (a *baselineArtifact) GobDecode(data []byte) error {
	var w baselineArtifactGob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	a.set, a.base = w.Set, w.Base
	return nil
}
