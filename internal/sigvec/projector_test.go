package sigvec

import (
	"math"
	"testing"
	"testing/quick"
)

// randVecs derives a dense vector and its ordered sparse view from a seed,
// with a controllable zero fraction (barrier-point vectors are mostly
// zero).
func randVecs(seed uint64, n int, zeroPct uint64) (dense []float64, idx []int32, val []float64) {
	dense = make([]float64, n)
	x := seed
	for i := range dense {
		x = x*6364136223846793005 + 1442695040888963407
		if (x>>7)%100 < zeroPct {
			continue
		}
		dense[i] = float64((x>>33)%100000) / 7
		if dense[i] != 0 {
			idx = append(idx, int32(i))
			val = append(val, dense[i])
		}
	}
	return dense, idx, val
}

// TestProjectorMatchesProject: the row-caching fused path must be
// bit-identical to the oracle project(normalizeL1(v)).
func TestProjectorMatchesProject(t *testing.T) {
	p := NewProjector(15, 99)
	out := make([]float64, 15)
	if err := quick.Check(func(seed uint64) bool {
		dense, idx, val := randVecs(seed, 160, 70)
		p.ProjectSparseInto(out, idx, val)
		want := project(normalizeL1(dense), 15, 99)
		for j := range want {
			if out[j] != want[j] {
				t.Logf("seed %d dim %d: %g != %g", seed, j, out[j], want[j])
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestProjectorSparseMatchesDense: consuming a very sparse ordered view
// must be bit-identical to the oracle's pass over the dense vector.
func TestProjectorSparseMatchesDense(t *testing.T) {
	p := NewProjector(15, 7)
	out := make([]float64, 15)
	if err := quick.Check(func(seed uint64) bool {
		dense, idx, val := randVecs(seed, 200, 85)
		p.ProjectSparseInto(out, idx, val)
		want := project(normalizeL1(dense), 15, 7)
		for j := range want {
			if out[j] != want[j] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBuilderMatchesBuild: the Builder must be bit-identical to the
// oracle build across component selections, both on a canonical run's
// point and on a jittered run's, whose LDV views are empty (the
// discovery loop then copies the baseline's projected row over the zero
// LDV half, or leaves it zero past the baseline's horizon).
func TestBuilderMatchesBuild(t *testing.T) {
	for _, opts := range []Options{
		paperOptions(3),
		{Dim: 8, UseBBV: true, UseLDV: false, Seed: 11},
		{Dim: 8, UseBBV: false, UseLDV: true, Seed: 11},
		{UseBBV: true, UseLDV: true}, // zero Dim must default like build
	} {
		b := NewBuilder(opts)
		out := make([]float64, b.Dims())
		if err := quick.Check(func(seed uint64) bool {
			bbv, bIdx, bVal := randVecs(seed, 320, 80)
			ldv, lIdx, lVal := randVecs(seed^0xabcdef, 160, 40)
			want := build(bbv, ldv, opts)
			if len(want) != b.Dims() {
				t.Logf("Dims() = %d, build produced %d", b.Dims(), len(want))
				return false
			}
			b.BuildSparseInto(out, bIdx, bVal, lIdx, lVal)
			for j := range want {
				if out[j] != want[j] {
					t.Logf("BuildSparseInto mismatch at %d", j)
					return false
				}
			}
			want = build(bbv, nil, opts)
			b.BuildSparseInto(out, bIdx, bVal, nil, nil)
			for j := range want {
				if out[j] != want[j] {
					t.Logf("BuildSparseInto without LDV views: mismatch at %d", j)
					return false
				}
			}
			return true
		}, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("opts %+v: %v", opts, err)
		}
	}
}

// sameBits reports whether a and b are identical bit for bit (signed
// zeros differ), and otherwise the first index where they differ.
func sameBits(a, b []float64) (int, bool) {
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return j, false
		}
	}
	return -1, true
}

// TestProjectionUnalignedLengths: ProjectSparseInto and BuildSparseInto
// against the oracles project and build across dimensions from 1 to 33,
// including dims the paper pipeline never uses.
func TestProjectionUnalignedLengths(t *testing.T) {
	for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 30, 31, 33} {
		p := NewProjector(dim, uint64(dim)*31+7)
		out := make([]float64, dim)
		opts := Options{Dim: dim, UseBBV: true, UseLDV: true, Seed: uint64(dim) * 31}
		b := NewBuilder(opts)
		sv := make([]float64, b.Dims())
		for _, zeroPct := range []uint64{0, 50, 95} {
			dense, idx, val := randVecs(uint64(dim)*100+zeroPct, 160, zeroPct)
			want := project(normalizeL1(dense), dim, uint64(dim)*31+7)
			p.ProjectSparseInto(out, idx, val)
			if j, ok := sameBits(out, want); !ok {
				t.Errorf("dim=%d zero=%d%%: ProjectSparseInto diverges from project at %d", dim, zeroPct, j)
			}
			ldv, lIdx, lVal := randVecs(uint64(dim)*200+zeroPct, 80, zeroPct)
			b.BuildSparseInto(sv, idx, val, lIdx, lVal)
			if j, ok := sameBits(sv, build(dense, ldv, opts)); !ok {
				t.Errorf("dim=%d zero=%d%%: BuildSparseInto diverges from build at %d", dim, zeroPct, j)
			}
		}
	}
}

// TestBuilderZeroAllocs: steady-state signature building must not
// allocate, on a canonical run's point or a jittered run's.
func TestBuilderZeroAllocs(t *testing.T) {
	b := NewBuilder(paperOptions(5))
	out := make([]float64, b.Dims())
	_, bIdx, bVal := randVecs(123, 320, 80)
	_, lIdx, lVal := randVecs(456, 160, 40)
	// Warm the row caches.
	b.BuildSparseInto(out, bIdx, bVal, lIdx, lVal)
	if n := testing.AllocsPerRun(100, func() {
		b.BuildSparseInto(out, bIdx, bVal, lIdx, lVal)
	}); n != 0 {
		t.Errorf("BuildSparseInto allocates %v per point, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		b.BuildSparseInto(out, bIdx, bVal, nil, nil)
	}); n != 0 {
		t.Errorf("BuildSparseInto without LDV views allocates %v per point, want 0", n)
	}
}

func TestBuilderPanicsLikeBuild(t *testing.T) {
	for name, fn := range map[string]func(){
		"no components": func() { NewBuilder(Options{Dim: 4}) },
		"bad dim":       func() { NewProjector(0, 1) },
		"short out": func() {
			NewBuilder(paperOptions(1)).BuildSparseInto(make([]float64, 3), nil, nil, nil, nil)
		},
		"ragged sparse": func() {
			NewProjector(4, 1).ProjectSparseInto(make([]float64, 4), []int32{1}, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkBuilderSparse is the streaming pipeline's per-point cost:
// reusable Builder consuming pin.Stream's sparse views into caller-owned
// scratch, at a realistic shape (40 blocks x 8 threads, 20 bins x 8
// threads) with barrier-point-like sparsity.
func BenchmarkBuilderSparse(b *testing.B) {
	_, bIdx, bVal := randVecs(2, 40*8, 80)
	_, lIdx, lVal := randVecs(3, 20*8, 40)
	bld := NewBuilder(paperOptions(3))
	out := make([]float64, bld.Dims())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.BuildSparseInto(out, bIdx, bVal, lIdx, lVal)
	}
}
