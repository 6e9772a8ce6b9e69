package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

func gobRoundTrip(t *testing.T, in, out any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func TestLDVBaselineGobRoundTrip(t *testing.T) {
	in := &LDVBaseline{n: 3, dim: 2, proj: []float64{1, 2, 3, 4.5, 0, 6}}
	var out LDVBaseline
	gobRoundTrip(t, in, &out)
	if !reflect.DeepEqual(in.proj, out.proj) || out.dim != in.dim {
		t.Errorf("decoded %+v, want %+v", out, *in)
	}
	if out.NumPoints() != 3 {
		t.Errorf("NumPoints = %d, want 3", out.NumPoints())
	}
	for i := 0; i < 3; i++ {
		if !reflect.DeepEqual(out.projRow(i), in.projRow(i)) {
			t.Errorf("projRow(%d) = %v, want %v", i, out.projRow(i), in.projRow(i))
		}
	}
	// Inconsistent wire data must be rejected, including shapes whose
	// n×dim is negative or overflows to the carried length.
	for _, b := range []LDVBaseline{
		{n: 2, dim: 3, proj: []float64{1}},
		{n: -1, dim: -1, proj: []float64{1}},
		{n: -2, dim: 0},
		{n: 0, dim: -2},
		{n: 1 << 32, dim: 1 << 32},
		{n: 1<<62 + 1, dim: 4, proj: make([]float64, 4)},
	} {
		bad, err := b.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		if err := new(LDVBaseline).GobDecode(bad); err == nil {
			t.Errorf("decoding inconsistent %d×%d baseline with %d floats succeeded", b.n, b.dim, len(b.proj))
		}
	}
}

// TestLDVBaselineDigest: the digest is a function of the rows alone — a
// gob round trip keeps it — and tells apart baselines that differ in one
// bit of one float, or in shape over the same floats. A long baseline
// crosses the digest's write buffer.
func TestLDVBaselineDigest(t *testing.T) {
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i) / 7
	}
	base := []LDVBaseline{
		{n: 3, dim: 2, proj: []float64{1, 2, 3, 4.5, 0, 6}},
		{n: 3, dim: 2, proj: []float64{1, 2, 3, 4.5, math.Float64frombits(1), 6}},
		{n: 2, dim: 3, proj: []float64{1, 2, 3, 4.5, 0, 6}},
		{n: 0, dim: 2},
		{n: 0, dim: 3},
		{n: 500, dim: 2, proj: long},
	}
	seen := map[string]int{}
	for i := range base {
		in := &base[i]
		var out LDVBaseline
		gobRoundTrip(t, in, &out)
		d := in.Digest()
		if got := out.Digest(); got != d {
			t.Errorf("baseline %d: digest %s after a gob round trip, %s before", i, got, d)
		}
		if j, dup := seen[d]; dup {
			t.Errorf("baselines %d and %d digest alike", j, i)
		}
		seen[d] = i
	}
	long2 := append([]float64(nil), long...)
	long2[999] = math.Nextafter(long2[999], 1)
	if (&LDVBaseline{n: 500, dim: 2, proj: long2}).Digest() == base[5].Digest() {
		t.Error("a change in the last float of a long baseline leaves the digest")
	}
}

func TestSetEvaluationGobRoundTrip(t *testing.T) {
	in := SetEvaluation{
		Set: BarrierPointSet{
			Run: 2, Threads: 4, TotalPoints: 7, TotalInstructions: 1000,
			Selected: []SelectedPoint{{Index: 1, Multiplier: 3.5, Instructions: 120}},
		},
		X86: &Validation{AvgAbsErrPct: [4]float64{1, 2, 3, 4}},
	}
	var out SetEvaluation
	gobRoundTrip(t, &in, &out)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", out, in)
	}
}

// TestSetEvaluationGobPreservesARMErr checks the two properties reports
// depend on: the message string is verbatim and errors.Is still matches
// ErrRegionCountMismatch, for both the bare sentinel and a wrapped one.
func TestSetEvaluationGobPreservesARMErr(t *testing.T) {
	wrapped := fmt.Errorf("core: set has 7 barrier points, collection has 9: %w",
		ErrRegionCountMismatch)
	for _, in := range []error{ErrRegionCountMismatch, wrapped} {
		eval := SetEvaluation{ARMErr: in}
		var out SetEvaluation
		gobRoundTrip(t, &eval, &out)
		if out.ARMErr == nil {
			t.Fatalf("ARMErr lost for %v", in)
		}
		if got, want := out.ARMErr.Error(), in.Error(); got != want {
			t.Errorf("ARMErr message = %q, want %q", got, want)
		}
		if !errors.Is(out.ARMErr, ErrRegionCountMismatch) {
			t.Errorf("decoded ARMErr %v does not match ErrRegionCountMismatch", out.ARMErr)
		}
	}
}

func TestSetEvaluationGobNilARMErrStaysNil(t *testing.T) {
	var out SetEvaluation
	gobRoundTrip(t, &SetEvaluation{}, &out)
	if out.ARMErr != nil {
		t.Errorf("ARMErr = %v, want nil", out.ARMErr)
	}
}
