package sigvec

import (
	"math"
	"testing"
	"testing/quick"
)

// paperOptions is the paper's signature: BBV+LDV, 15+15 dimensions.
func paperOptions(seed uint64) Options {
	return Options{Dim: DefaultDim, UseBBV: true, UseLDV: true, Seed: seed}
}

// sparseView returns the ordered sparse view of dense v.
func sparseView(v []float64) (idx []int32, val []float64) {
	for i, x := range v {
		if x != 0 {
			idx = append(idx, int32(i))
			val = append(val, x)
		}
	}
	return idx, val
}

// projectDense projects dense v through p into a fresh vector.
func projectDense(p *Projector, v []float64) []float64 {
	out := make([]float64, p.Dim())
	idx, val := sparseView(v)
	p.ProjectSparseInto(out, idx, val)
	return out
}

// buildDense builds the signature of dense bbv and ldv into a fresh
// vector.
func buildDense(b *Builder, bbv, ldv []float64) []float64 {
	out := make([]float64, b.Dims())
	bIdx, bVal := sparseView(bbv)
	lIdx, lVal := sparseView(ldv)
	b.BuildSparseInto(out, bIdx, bVal, lIdx, lVal)
	return out
}

// distance returns the Euclidean distance between two equal-length
// vectors.
func distance(a, b []float64) float64 {
	var ss float64
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return math.Sqrt(ss)
}

func TestProjectDeterministic(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5}
	a := projectDense(NewProjector(8, 42), v)
	b := projectDense(NewProjector(8, 42), v)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("projection must be deterministic")
		}
	}
	c := projectDense(NewProjector(8, 43), v)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different projections")
	}
}

// TestProjectLinearity: behind the L1 normalisation the projection is
// linear, so with each projected vector scaled back by its input's L1
// mass the projection of a sum is the sum of the projections.
func TestProjectLinearity(t *testing.T) {
	p := NewProjector(6, 7)
	mass := func(v []float64) float64 {
		var m float64
		for _, x := range v {
			m += math.Abs(x)
		}
		return m
	}
	if err := quick.Check(func(a, b, c, d int8) bool {
		u := []float64{float64(a), float64(b), 0}
		w := []float64{0, float64(c), float64(d)}
		s := []float64{u[0] + w[0], u[1] + w[1], u[2] + w[2]}
		pu, pw, ps := projectDense(p, u), projectDense(p, w), projectDense(p, s)
		for i := range ps {
			if math.Abs(ps[i]*mass(s)-(pu[i]*mass(u)+pw[i]*mass(w))) > 1e-9 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestProjectPreservesDistanceApproximately(t *testing.T) {
	// Two far-apart sparse vectors should remain far apart after
	// projection, and a vector should stay close to itself.
	n := 500
	u := make([]float64, n)
	v := make([]float64, n)
	u[3] = 1
	v[400] = 1
	p := NewProjector(DefaultDim, 9)
	pu := projectDense(p, u)
	pv := projectDense(p, v)
	if d := distance(pu, pv); d < 0.3 {
		t.Errorf("distinct unit vectors projected too close: %f", d)
	}
	if distance(pu, projectDense(p, u)) != 0 {
		t.Error("self distance must be zero")
	}
}

func TestProjectPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewProjector(0, 1)
}

// TestBuildDimensions: a signature is the selected components' halves,
// BBV first, each what a single-component Builder produces.
func TestBuildDimensions(t *testing.T) {
	bbv := []float64{1, 2, 3}
	ldv := []float64{4, 5}
	opts := paperOptions(1)
	sv := buildDense(NewBuilder(opts), bbv, ldv)
	if len(sv) != 2*DefaultDim {
		t.Fatalf("combined SV dim = %d, want %d", len(sv), 2*DefaultDim)
	}
	opts.UseLDV = false
	bbvOnly := buildDense(NewBuilder(opts), bbv, ldv)
	opts = paperOptions(1)
	opts.UseBBV = false
	ldvOnly := buildDense(NewBuilder(opts), bbv, ldv)
	if len(bbvOnly) != DefaultDim || len(ldvOnly) != DefaultDim {
		t.Fatalf("BBV-only SV dim = %d, LDV-only SV dim = %d, want %d", len(bbvOnly), len(ldvOnly), DefaultDim)
	}
	for j := 0; j < DefaultDim; j++ {
		if sv[j] != bbvOnly[j] || sv[DefaultDim+j] != ldvOnly[j] {
			t.Fatalf("combined SV is not the BBV half then the LDV half at %d", j)
		}
	}
}

func TestBuildPanicsWithoutComponents(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(Options{Dim: 4})
}

func TestBuildScaleInvariance(t *testing.T) {
	// L1 normalisation makes signatures invariant to uniform scaling of
	// the raw vectors (a region twice as long with the same shape has the
	// same signature).
	b := NewBuilder(paperOptions(3))
	x := buildDense(b, []float64{1, 2, 3, 0}, []float64{5, 0, 1})
	y := buildDense(b, []float64{2, 4, 6, 0}, []float64{10, 0, 2})
	if d := distance(x, y); d > 1e-9 {
		t.Errorf("scaled vectors should have identical signatures, distance %f", d)
	}
}

func TestBuildZeroVectors(t *testing.T) {
	b := NewBuilder(paperOptions(4))
	for _, sv := range [][]float64{
		buildDense(b, []float64{0, 0}, []float64{0}),
		buildDense(b, nil, nil),
	} {
		for _, x := range sv {
			if x != 0 {
				t.Fatal("all-zero inputs should give a zero signature")
			}
		}
	}
}

func TestBuildDefaultDimFallback(t *testing.T) {
	if n := NewBuilder(Options{UseBBV: true, UseLDV: true}).Dims(); n != 2*DefaultDim {
		t.Errorf("zero Dim should default to %d, got %d", DefaultDim, n/2)
	}
}
