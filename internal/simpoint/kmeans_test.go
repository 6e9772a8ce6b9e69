package simpoint

import (
	"encoding/binary"
	"math"
	"testing"

	"barrierpoint/internal/xrand"
)

// lloydRun is one run of the plain loop and the paths it took.
type lloydRun struct {
	cent       []float64
	assign     []int
	distortion float64
	capped     bool // stopped by maxIter rather than by convergence
	reseeds    int  // empty clusters re-seeded on the farthest point
	fallbacks  int  // seeds drawn uniformly because every minDist was 0
}

// lloydOracle is the plain k-means++ / Lloyd loop that kmeansOnce
// accelerates: every assignment step measures every point against every
// centroid. kmeansOnce must reproduce its assignments, centroids and
// distortion bit for bit from an identically seeded rng.
func lloydOracle(points []Point, k, dim int, rng *xrand.Rand, maxIter int) lloydRun {
	n := len(points)
	run := lloydRun{cent: make([]float64, k*dim), assign: make([]int, n), capped: true}
	cent, assign := run.cent, run.assign
	counts := make([]int, k)

	first := rng.Intn(n)
	copy(cent[:dim], points[first].Vec)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = sqDist(points[i].Vec, cent[:dim])
	}
	for nc := 1; nc < k; nc++ {
		var total float64
		for _, d := range minDist {
			total += d
		}
		var next int
		if total <= 0 {
			next = rng.Intn(n)
			run.fallbacks++
		} else {
			r := rng.Float64() * total
			acc := 0.0
			next = n - 1
			for i, d := range minDist {
				acc += d
				if acc >= r {
					next = i
					break
				}
			}
		}
		c := cent[nc*dim : (nc+1)*dim]
		copy(c, points[next].Vec)
		for i := range minDist {
			if d := sqDist(points[i].Vec, c); d < minDist[i] {
				minDist[i] = d
			}
		}
	}

	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i := range points {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				if d := sqDist(points[i].Vec, cent[c*dim:(c+1)*dim]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best || iter == 0 {
				changed = changed || assign[i] != best
				assign[i] = best
			}
		}
		if iter > 0 && !changed {
			run.capped = false
			break
		}
		for c := 0; c < k; c++ {
			for j := c * dim; j < (c+1)*dim; j++ {
				cent[j] = 0
			}
			counts[c] = 0
		}
		for i, a := range assign {
			counts[a]++
			row := cent[a*dim : (a+1)*dim]
			for j, v := range points[i].Vec {
				row[j] += v
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				far, farD := 0, -1.0
				for i := range points {
					if d := sqDist(points[i].Vec, cent[assign[i]*dim:(assign[i]+1)*dim]); d > farD {
						far, farD = i, d
					}
				}
				copy(cent[c*dim:(c+1)*dim], points[far].Vec)
				run.reseeds++
				continue
			}
			inv := 1 / float64(counts[c])
			for j := c * dim; j < (c+1)*dim; j++ {
				cent[j] *= inv
			}
		}
	}
	for i, a := range assign {
		run.distortion += sqDist(points[i].Vec, cent[a*dim:(a+1)*dim])
	}
	return run
}

// sameFloat reports bit equality, counting any two NaNs as equal: Go
// leaves which operand's NaN payload propagates to code generation.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// kmeansPaths counts the oracle paths a set of calls exercised.
type kmeansPaths struct {
	calls, capped, reseeded, fallback int
}

// matchLloyd runs kmeansOnce and the oracle side by side for every k in
// 1..maxK and every restart, from one shared scratch, exactly as
// ClusterWith drives kmeansOnce, and fails on the first call whose
// assignment, centroid bits, distortion bits or rng stream differ.
func matchLloyd(t *testing.T, points []Point, maxK, restarts, maxIter int, seed uint64) kmeansPaths {
	t.Helper()
	n, dim := len(points), len(points[0].Vec)
	maxK = min(maxK, n)
	s := NewScratch()
	s.grow(n, dim, maxK)
	tau := boundMargin(points)
	fast, plain := xrand.New(seed), xrand.New(seed)
	var p kmeansPaths
	for k := 1; k <= maxK; k++ {
		for r := 0; r < restarts; r++ {
			got := s.kmeansOnce(points, k, dim, fast, maxIter, tau)
			want := lloydOracle(points, k, dim, plain, maxIter)
			for i, a := range want.assign {
				if s.assign[i] != a {
					t.Fatalf("k=%d restart %d: point %d assigned %d, plain loop %d", k, r, i, s.assign[i], a)
				}
			}
			for j, v := range want.cent {
				if !sameFloat(s.cent[j], v) {
					t.Fatalf("k=%d restart %d: centroid cell %d = %v, plain loop %v", k, r, j, s.cent[j], v)
				}
			}
			if !sameFloat(got, want.distortion) {
				t.Fatalf("k=%d restart %d: distortion %v, plain loop %v", k, r, got, want.distortion)
			}
			if *fast != *plain {
				t.Fatalf("k=%d restart %d: rng streams diverged", k, r)
			}
			p.calls++
			if want.capped {
				p.capped++
			}
			if want.reseeds > 0 {
				p.reseeded++
			}
			if want.fallbacks > 0 {
				p.fallback++
			}
		}
	}
	return p
}

// gaussPoints draws n points of the given dimension around `centres`
// random centres spread over [-scale, scale].
func gaussPoints(seed uint64, n, dim, centres int, scale, spread float64) []Point {
	rng := xrand.New(seed)
	cs := make([][]float64, centres)
	for c := range cs {
		cs[c] = make([]float64, dim)
		for j := range cs[c] {
			cs[c][j] = scale * (2*rng.Float64() - 1)
		}
	}
	pts := make([]Point, n)
	for i := range pts {
		v := make([]float64, dim)
		for j := range v {
			v[j] = cs[i%centres][j] + spread*rng.NormFloat64()
		}
		pts[i] = Point{Vec: v, Weight: 1}
	}
	return pts
}

// repeated returns each of `distinct` random points `copies` times.
func repeated(seed uint64, distinct, copies, dim int) []Point {
	base := gaussPoints(seed, distinct, dim, distinct, 1, 0)
	pts := make([]Point, 0, distinct*copies)
	for c := 0; c < copies; c++ {
		pts = append(pts, base...)
	}
	return pts
}

// nearTied places points on an integer lattice, where many distances tie
// exactly, and perturbs some coordinates by one part in 1e15.
func nearTied(seed uint64, side, dim int) []Point {
	rng := xrand.New(seed)
	var pts []Point
	total := 1
	for j := 0; j < dim; j++ {
		total *= side
	}
	for idx := 0; idx < total; idx++ {
		v := make([]float64, dim)
		for j, rest := 0, idx; j < dim; j, rest = j+1, rest/side {
			v[j] = float64(rest % side)
			if rng.Intn(3) == 0 {
				v[j] *= 1 + 1e-15*float64(rng.Intn(3)-1)
			}
		}
		pts = append(pts, Point{Vec: v, Weight: 1})
	}
	return pts
}

// scaled returns pts with every coordinate multiplied by f and shifted by off.
func scaled(pts []Point, f, off float64) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		v := make([]float64, len(p.Vec))
		for j, x := range p.Vec {
			v[j] = x*f + off
		}
		out[i] = Point{Vec: v, Weight: p.Weight}
	}
	return out
}

// withNonFinite returns a copy of pts with NaN and ±Inf planted in a few
// coordinates.
func withNonFinite(pts []Point) []Point {
	out := scaled(pts, 1, 0)
	out[1].Vec[0] = math.NaN()
	out[len(out)/2].Vec[1] = math.Inf(1)
	out[len(out)-1].Vec[0] = math.Inf(-1)
	return out
}

// TestKMeansMatchesLloyd: the bounded loop reproduces the plain Lloyd
// loop call for call on every shape of input that reaches a corner of
// it, and each case exercises the path it is named for.
func TestKMeansMatchesLloyd(t *testing.T) {
	cases := []struct {
		name          string
		points        []Point
		maxK, maxIter int
		want          func(kmeansPaths) bool
	}{
		{"random", gaussPoints(1, 300, 12, 6, 1, 0.2), 12, 100, nil},
		{"discovery-shaped", studyPoints(2, 150, 30, 5), 20, 100, nil},
		{"exact-duplicates", repeated(3, 7, 12, 5), 12, 100, nil},
		{"coincident-seeds", repeated(4, 3, 5, 4), 10, 100,
			func(p kmeansPaths) bool { return p.fallback > 0 }},
		{"empty-cluster-reseed", repeated(5, 4, 6, 3), 12, 100,
			func(p kmeansPaths) bool { return p.reseeded > 0 }},
		{"near-tied", nearTied(6, 5, 3), 16, 100, nil},
		{"maxiter-capped", gaussPoints(7, 10, 2, 1, 0, 1), 5, 2,
			func(p kmeansPaths) bool { return p.capped > 0 }},
		{"single-iteration", gaussPoints(8, 40, 6, 4, 1, 0.5), 8, 1,
			func(p kmeansPaths) bool { return p.capped == p.calls }},
		{"large-offset", scaled(gaussPoints(9, 120, 8, 5, 1, 0.1), 1, 1e6), 10, 100, nil},
		{"tiny-scale", scaled(gaussPoints(10, 120, 8, 5, 1, 0.1), 1e-90, 0), 10, 100, nil},
		{"subnormal-scale", scaled(gaussPoints(11, 60, 4, 3, 1, 0.1), 1e-160, 0), 8, 100, nil},
		{"huge-scale", scaled(gaussPoints(12, 60, 4, 3, 1, 0.1), 1e150, 0), 8, 100, nil},
		{"non-finite", withNonFinite(gaussPoints(13, 80, 4, 4, 1, 0.3)), 8, 100, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := matchLloyd(t, tc.points, tc.maxK, 3, tc.maxIter, 42)
			if tc.want != nil && !tc.want(p) {
				t.Errorf("case did not exercise its path: %+v", p)
			}
		})
	}
}

// TestBoundMargin: τ is finite exactly where the margin argument holds,
// and +Inf — no skipping at all — for non-finite or badly scaled sets.
func TestBoundMargin(t *testing.T) {
	base := gaussPoints(1, 50, 6, 3, 1, 0.2)
	for _, tc := range []struct {
		name   string
		points []Point
		finite bool
	}{
		{"unit", base, true},
		{"offset-1e6", scaled(base, 1, 1e6), true},
		{"offset-1e12", scaled(base, 1, 1e12), false},
		{"scale-1e-90", scaled(base, 1e-90, 0), true},
		{"scale-1e-120", scaled(base, 1e-120, 0), false},
		{"scale-1e120", scaled(base, 1e120, 0), false},
		{"all-equal", repeated(2, 1, 5, 3), false},
		{"non-finite", withNonFinite(base), false},
	} {
		if tau := boundMargin(tc.points); !math.IsInf(tau, 1) != tc.finite {
			t.Errorf("%s: τ = %v, want finite %v", tc.name, tau, tc.finite)
		}
	}
}

// TestReassignTrustsBounds: the assignment step really skips what its
// bounds exclude. Centroid 1 sits on the point, but bounds that (falsely)
// put it far away keep the point on centroid 0 without measuring it; with
// honest bounds the point moves. Without this, a change that silently
// disabled every skip would still match the oracle.
func TestReassignTrustsBounds(t *testing.T) {
	points := []Point{{Vec: []float64{1, 1}, Weight: 1}}
	s := NewScratch()
	s.grow(1, 2, 2)
	copy(s.cent, []float64{0, 0, 1, 1})
	s.assign[0] = 0
	s.gapRow(1, 2, 2)
	s.nearest(2)
	s.upper[0] = math.Sqrt2
	s.lower[0], s.lower[1] = math.Sqrt2, 10
	if s.reassign(points, 2, 2, 1e-9) || s.assign[0] != 0 {
		t.Fatalf("excluded centroid was measured: assign %d", s.assign[0])
	}
	s.lower[1] = 0
	if !s.reassign(points, 2, 2, 1e-9) || s.assign[0] != 1 {
		t.Fatalf("open centroid was not measured: assign %d", s.assign[0])
	}
}

// FuzzKMeansExact: on arbitrary float64 bit patterns — NaN payloads,
// infinities, subnormals, wild scale mixes — the bounded loop matches the
// plain loop exactly.
func FuzzKMeansExact(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(3), uint8(20), floatBytes(0, 0, 1, 1, 0, 1, 5, 5, 5, 6, 6, 5))
	f.Add(uint64(2), uint8(1), uint8(4), uint8(5), floatBytes(1, 1, 1, 2, 2, 2, 1e-310, 3))
	f.Add(uint64(3), uint8(3), uint8(2), uint8(50), floatBytes(math.NaN(), 0, 1, math.Inf(1), 2, 3, 4, 5, 6))
	f.Add(uint64(4), uint8(2), uint8(5), uint8(100), floatBytes(1e300, -1e300, 1e-300, 3, 1e154, 2, 1, 1, 0, 0))
	f.Fuzz(func(t *testing.T, seed uint64, dimB, kB, iterB uint8, raw []byte) {
		dim := 1 + int(dimB)%6
		n := min(len(raw)/8/dim, 64)
		if n == 0 {
			return
		}
		points := make([]Point, n)
		for i := range points {
			v := make([]float64, dim)
			for j := range v {
				v[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[(i*dim+j)*8:]))
			}
			points[i] = Point{Vec: v, Weight: 1}
		}
		matchLloyd(t, points, 1+int(kB)%8, 2, 1+int(iterB)%100, seed)
	})
}

func floatBytes(vs ...float64) []byte {
	out := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}
