package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// This file makes the study artifacts gob-serialisable so the persistent
// cache store (internal/cachestore) can spill them to disk. Two types need
// help: LDVBaseline keeps its data in an unexported field, and
// SetEvaluation carries an error value, which gob cannot encode.

// ldvBaselineGob is the wire shape of an LDVBaseline: the projected rows
// only. The raw binned LDVs exist solely on the in-process legacy golden
// path and are never persisted. (This shape replaced the raw-row wire
// format; the cache codec name carries the version bump, so old disk
// entries are simply recomputed.)
type ldvBaselineGob struct {
	N, Dim int
	Proj   []float64
}

// GobEncode implements gob.GobEncoder.
func (b LDVBaseline) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(ldvBaselineGob{N: b.n, Dim: b.dim, Proj: b.proj})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (b *LDVBaseline) GobDecode(data []byte) error {
	var w ldvBaselineGob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	// Baselines arrive from other processes, so the claimed shape is
	// checked before anything slices by it, overflow included.
	if w.N < 0 || w.Dim < 0 || w.Dim > 0 && w.N > math.MaxInt/w.Dim || w.N*w.Dim != len(w.Proj) {
		return fmt.Errorf("core: LDV baseline wire data claims %d×%d rows but carries %d floats", w.N, w.Dim, len(w.Proj))
	}
	*b = LDVBaseline{n: w.N, dim: w.Dim, proj: w.Proj}
	return nil
}

// regionCountError is a decoded stand-in for the wrapped
// ErrRegionCountMismatch a validation produced before it was persisted: the
// message survives verbatim and errors.Is still matches the sentinel, so
// reports rendered from a disk-loaded study are byte-identical to the
// cold run's.
type regionCountError struct{ msg string }

func (e *regionCountError) Error() string { return e.msg }

func (e *regionCountError) Unwrap() error { return ErrRegionCountMismatch }

// setEvaluationGob is the wire shape of a SetEvaluation. ARMErr is
// flattened to its message: in a completed study the only ARM error that
// survives assembly is a wrapped ErrRegionCountMismatch (anything else
// fails the study), so decoding restores that identity.
type setEvaluationGob struct {
	Set       BarrierPointSet
	X86       *Validation
	ARM       *Validation
	ARMErrMsg string
}

// GobEncode implements gob.GobEncoder.
func (e SetEvaluation) GobEncode() ([]byte, error) {
	w := setEvaluationGob{Set: e.Set, X86: e.X86, ARM: e.ARM}
	if e.ARMErr != nil {
		w.ARMErrMsg = e.ARMErr.Error()
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(w)
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder.
func (e *SetEvaluation) GobDecode(data []byte) error {
	var w setEvaluationGob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	*e = SetEvaluation{Set: w.Set, X86: w.X86, ARM: w.ARM}
	if w.ARMErrMsg != "" {
		if w.ARMErrMsg == ErrRegionCountMismatch.Error() {
			e.ARMErr = ErrRegionCountMismatch
		} else {
			e.ARMErr = &regionCountError{msg: w.ARMErrMsg}
		}
	}
	return nil
}
