// Package simpoint reimplements the clustering side of the SimPoint 3.2
// tool that BarrierPoint drives: k-means over signature vectors with
// k-means++ seeding, multiple random restarts, and BIC-based selection of
// the number of clusters. Each cluster contributes one representative (the
// member closest to the centroid) and a multiplier derived from the
// cluster's weight, which the methodology later uses to scale counters
// back up to full-program estimates.
package simpoint

import (
	"fmt"
	"math"
	"sync"

	"barrierpoint/internal/xrand"
)

// Point is one barrier point in signature space.
type Point struct {
	Vec []float64
	// Weight is the point's share of the execution (instruction count).
	Weight float64
}

// Config controls the clustering.
type Config struct {
	// MaxK caps the number of clusters searched (the paper's selections
	// range up to 20, so SimPoint's default maxK=30 is plenty; we default
	// to 20 to match the observed selections).
	MaxK int
	// BICThreshold picks the smallest k whose BIC reaches this fraction
	// of the best BIC (SimPoint's default policy, 0.9).
	BICThreshold float64
	// Restarts is the number of random k-means initialisations per k.
	Restarts int
	// MaxIterations caps Lloyd iterations per run.
	MaxIterations int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultConfig mirrors the parameters the paper reports using.
func DefaultConfig(seed uint64) Config {
	return Config{MaxK: 20, BICThreshold: 0.9, Restarts: 5, MaxIterations: 100, Seed: seed}
}

// Result is the outcome of clustering.
type Result struct {
	K int
	// Assign maps each point to its cluster.
	Assign []int
	// Representatives holds, per cluster, the index of the member point
	// nearest the centroid — the selected barrier points.
	Representatives []int
	// Multipliers holds, per cluster, the factor that scales the
	// representative's counters to stand in for the whole cluster:
	// (cluster total weight) / (representative weight).
	Multipliers []float64
	// ClusterWeights holds each cluster's fraction of the total weight.
	ClusterWeights []float64
	// BIC is the score of the chosen k.
	BIC float64
}

//bp:noalloc
func sqDist(a, b []float64) float64 {
	var ss float64
	b = b[:len(a)] // bounds-check hint
	for i := range a {
		d := a[i] - b[i]
		// The conversion forces the square to round before the add,
		// blocking compiler FMA fusion (arm64) so every architecture
		// computes the same distances.
		ss += float64(d * d)
	}
	return ss
}

// Scratch is the reusable working set for Cluster: Lloyd-iteration state,
// the distance bounds of the accelerated assignment step, and the per-k
// best-restart record, all in flat one-slice backings (centroid c lives at
// [c*dim:(c+1)*dim], point i's bounds at [i*k:(i+1)*k]). A Scratch may be
// reused across studies of any size — grow reslices when capacity
// suffices and every cell is overwritten before it is read, so a reused
// Scratch produces bit-identical results to a fresh one (the property
// test in scratch_test.go holds this). A Scratch is not safe for
// concurrent use; Cluster draws from an internal pool, ClusterWith takes
// an explicit one.
type Scratch struct {
	cent    []float64 // working centroids, k*dim, for the current k-means run
	assign  []int     // working assignment, n
	counts  []int     // per-cluster member counts, k
	minDist []float64 // k-means++ seeding state, n

	// Elkan bounds for the current k-means run. upper[i] bounds point i's
	// distance to its assigned centroid from above and lower[i*k+c] its
	// distance to centroid c from below; gap[a*k+c] is half the distance
	// between centroids a and c, near[a] the smallest of a's gaps; prev
	// holds the centroids before the last update and drift how far each
	// one moved.
	upper []float64 // n
	lower []float64 // n*k
	gap   []float64 // k*k
	near  []float64 // k
	prev  []float64 // k*dim
	drift []float64 // k

	// Best restart per k: candBIC[k-1] is its score and candRng[k-1] the
	// rng state it started from, enough to replay it exactly.
	candBIC []float64
	candRng []xrand.Rand
}

// NewScratch returns an empty Scratch; ClusterWith sizes it on first use.
func NewScratch() *Scratch { return &Scratch{} }

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (s *Scratch) grow(n, dim, maxK int) {
	s.cent = resize(s.cent, maxK*dim)
	s.assign = resize(s.assign, n)
	s.counts = resize(s.counts, maxK)
	s.minDist = resize(s.minDist, n)
	s.upper = resize(s.upper, n)
	s.lower = resize(s.lower, n*maxK)
	s.gap = resize(s.gap, maxK*maxK)
	s.near = resize(s.near, maxK)
	s.prev = resize(s.prev, maxK*dim)
	s.drift = resize(s.drift, maxK)
	s.candBIC = resize(s.candBIC, maxK)
	s.candRng = resize(s.candRng, maxK)
}

var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// boundMargin returns τ, the slack every bound test in kmeansOnce adds
// before it may skip a distance: 1e-9 × the largest distance of a point
// from the first one. Rounding makes a computed distance off by a
// relative ~dim·2⁻⁵³ of itself, so the error a bound gathers over the
// Lloyd iterations stays orders of magnitude below τ while distances
// neither overflow nor sink into subnormals and the coordinates do not
// dwarf the spread (centroid sums round relative to the coordinates).
// Outside that range, and whenever a coordinate is NaN or ±Inf, τ is
// +Inf: every bound test then fails and each step scans all centroids.
func boundMargin(points []Point) float64 {
	var r2, m2 float64
	for i := range points {
		r2 = math.Max(r2, sqDist(points[i].Vec, points[0].Vec))
		var norm float64
		for _, v := range points[i].Vec {
			norm += v * v
		}
		m2 = math.Max(m2, norm)
	}
	r, m := math.Sqrt(r2), math.Sqrt(m2)
	if !(r >= 1e-100 && m <= 1e100 && m <= 1e9*r) {
		return math.Inf(1)
	}
	return 1e-9 * r
}

// kmeansOnce runs one seeded k-means++ / Lloyd pass into s.assign and
// s.cent[:k*dim] and returns the distortion (sum of squared distances).
//
// It is Lloyd's algorithm with Elkan's triangle-inequality bounds (Elkan,
// ICML 2003) and computes exactly what the plain loop (lloydOracle in
// kmeans_test.go) computes: every assignment step takes, per point, the
// lowest-index centroid with the smallest sqDist under strict <, but
// calls sqDist only for centroids the bounds cannot exclude. A centroid
// is excluded only when the bounds put it more than τ (see boundMargin)
// farther than the assigned one, so the plain loop could not have picked
// it either. Iteration 0 starts from the seeding's nearest-seed argmin and
// its exact distances, so it re-measures near-ties only. The centroid
// update, the empty-cluster reseed and the distortion are the plain
// loop's own code. Stale scratch contents never leak into the result:
// seeding overwrites cent, minDist, assign and every bound, moveBounds
// overwrites drift and the gaps before they are read, and counts are
// zeroed before accumulation.
//
//bp:noalloc
func (s *Scratch) kmeansOnce(points []Point, k, dim int, rng *xrand.Rand, maxIter int, tau float64) float64 {
	n := len(points)
	cent := s.cent[:k*dim]
	s.seed(points, k, dim, rng, tau)

	assign := s.assign[:n]
	counts := s.counts[:k]
	for iter := 0; iter < maxIter; iter++ {
		if iter > 0 {
			s.moveBounds(n, k, dim)
		}
		changed := s.reassign(points, k, dim, tau)
		if iter > 0 && !changed {
			break
		}
		copy(s.prev[:k*dim], cent)
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
				// Re-seed an empty cluster on the farthest point.
				far, farD := 0, -1.0
				for i := range points {
					if d := sqDist(points[i].Vec, cent[assign[i]*dim:(assign[i]+1)*dim]); d > farD {
						far, farD = i, d
					}
				}
				copy(cent[c*dim:(c+1)*dim], points[far].Vec)
				continue
			}
			inv := 1 / float64(counts[c])
			for j := c * dim; j < (c+1)*dim; j++ {
				cent[j] *= inv
			}
		}
	}
	var distortion float64
	for i, a := range assign {
		distortion += sqDist(points[i].Vec, cent[a*dim:(a+1)*dim])
	}
	return distortion
}

// seed places the k-means++ seeds in s.cent and leaves each point's
// nearest seed (strict <, lowest index) in s.assign, its exact distance
// to it in s.upper, and a lower bound on its distance to every seed in
// s.lower — the state Lloyd iteration 0 starts from. A new seed c is not
// measured against a point x whose nearest seed so far, c_a at distance
// u, proves it farther: d(x, c) ≥ d(c, c_a) − u > u + τ, so c could not
// have lowered minDist. minDist therefore holds exactly the plain
// seeding's values, and the weighted draws pick the same seeds.
//
//bp:noalloc
func (s *Scratch) seed(points []Point, k, dim int, rng *xrand.Rand, tau float64) {
	n := len(points)
	cent := s.cent[:k*dim]
	minDist := s.minDist[:n]
	assign := s.assign[:n]
	upper := s.upper[:n]
	lower := s.lower[:n*k]
	gap := s.gap[:k*k]

	first := rng.Intn(n)
	copy(cent[:dim], points[first].Vec)
	for i := range minDist {
		d := sqDist(points[i].Vec, cent[:dim])
		minDist[i] = d
		assign[i] = 0
		upper[i] = math.Sqrt(d)
		lower[i*k] = upper[i]
	}
	for nc := 1; nc < k; nc++ {
		var total float64
		for _, d := range minDist {
			total += d
		}
		var next int
		if total <= 0 {
			next = rng.Intn(n)
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
		s.gapRow(nc, k, dim)
		g := gap[nc*k : (nc+1)*k]
		for i := range minDist {
			u := upper[i]
			if lb := 2*g[assign[i]] - u; lb > u+tau {
				lower[i*k+nc] = lb
				continue
			}
			d := sqDist(points[i].Vec, c)
			lower[i*k+nc] = math.Sqrt(d)
			if d < minDist[i] {
				minDist[i] = d
				assign[i] = nc
				upper[i] = lower[i*k+nc]
			}
		}
	}
	s.nearest(k)
}

// reassign is one Lloyd assignment step over the bounds and reports
// whether any assignment changed. A point keeps its centroid a without a
// single distance when its upper bound u plus τ stays below every other
// centroid's lower bound or half-gap to a: d(x, c) ≥ 2·gap(a, c) − u. Any
// other point gets its bound on a tightened to the exact distance and
// scans the centroids in index order with strict <, as the plain loop
// does, measuring only those the tightened bounds cannot exclude.
//
//bp:noalloc
func (s *Scratch) reassign(points []Point, k, dim int, tau float64) bool {
	n := len(points)
	cent := s.cent[:k*dim]
	assign := s.assign[:n]
	upper := s.upper[:n]
	lower := s.lower[:n*k]
	gap := s.gap[:k*k]
	near := s.near[:k]
	changed := false
	for i := range points {
		a := assign[i]
		ut := upper[i] + tau
		if ut < near[a] {
			continue
		}
		lo := lower[i*k : (i+1)*k]
		g := gap[a*k : (a+1)*k]
		open := false
		for c := range lo {
			if c != a && !(ut < lo[c]) && !(ut < g[c]) {
				open = true
				break
			}
		}
		if !open {
			continue
		}
		x := points[i].Vec
		da := sqDist(x, cent[a*dim:(a+1)*dim])
		lo[a] = math.Sqrt(da)
		ut = lo[a] + tau
		best, bestD := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			d := da
			if c != a {
				if ut < lo[c] || ut < g[c] {
					continue
				}
				d = sqDist(x, cent[c*dim:(c+1)*dim])
				lo[c] = math.Sqrt(d)
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		upper[i] = math.Sqrt(bestD)
		if best != a {
			assign[i] = best
			changed = true
		}
	}
	return changed
}

// moveBounds carries the bounds across a centroid update: a centroid's
// drift from s.prev widens the upper bound of every point assigned to it
// and narrows every point's lower bound to it (triangle inequality), and
// the gaps are remeasured between the moved centroids.
//
//bp:noalloc
func (s *Scratch) moveBounds(n, k, dim int) {
	cent, prev := s.cent[:k*dim], s.prev[:k*dim]
	drift := s.drift[:k]
	for c := range drift {
		drift[c] = math.Sqrt(sqDist(prev[c*dim:(c+1)*dim], cent[c*dim:(c+1)*dim]))
	}
	upper := s.upper[:n]
	lower := s.lower[:n*k]
	for i, a := range s.assign[:n] {
		upper[i] += drift[a]
		row := lower[i*k : (i+1)*k]
		for c, d := range drift {
			row[c] -= d
		}
	}
	for c := 1; c < k; c++ {
		s.gapRow(c, k, dim)
	}
	s.nearest(k)
}

// gapRow sets the half-distances between centroid c and every
// lower-index centroid, both ways round.
//
//bp:noalloc
func (s *Scratch) gapRow(c, k, dim int) {
	cent := s.cent[:k*dim]
	gap := s.gap[:k*k]
	cc := cent[c*dim : (c+1)*dim]
	for a := 0; a < c; a++ {
		h := 0.5 * math.Sqrt(sqDist(cc, cent[a*dim:(a+1)*dim]))
		gap[c*k+a], gap[a*k+c] = h, h
	}
}

// nearest sets near[a] to the smallest gap between centroid a and any
// other (+Inf for a lone centroid, NaN if any of its gaps is NaN).
//
//bp:noalloc
func (s *Scratch) nearest(k int) {
	for a, row := 0, s.gap[:k*k]; a < k; a++ {
		m := math.Inf(1)
		for c, h := range row[a*k : (a+1)*k] {
			if c != a {
				m = math.Min(m, h)
			}
		}
		s.near[a] = m
	}
}

// bic scores a clustering with the X-means spherical-Gaussian BIC
// (Pelleg & Moore), as SimPoint does: higher is better. distortion is the
// sum of squared point-to-centroid distances over assign, which
// kmeansOnce already accumulated in exactly this per-point order — it is
// passed in rather than recomputed (n*dim multiplies saved per restart).
// counts is zeroed and refilled scratch of length k.
//
//bp:noalloc
func bic(points []Point, assign []int, k, dim int, distortion float64, counts []int) float64 {
	n := len(points)
	if n <= k {
		return math.Inf(-1)
	}
	counts = counts[:k]
	for c := range counts {
		counts[c] = 0
	}
	for _, a := range assign {
		counts[a]++
	}
	variance := distortion / float64(dim*(n-k))
	if variance <= 0 {
		variance = 1e-12
	}
	var loglik float64
	for c := 0; c < k; c++ {
		nc := float64(counts[c])
		if nc == 0 {
			continue
		}
		loglik += nc*math.Log(nc/float64(n)) -
			nc*float64(dim)/2*math.Log(2*math.Pi*variance) -
			(nc-1)*float64(dim)/2
	}
	params := float64(k-1) + float64(k*dim) + 1
	return loglik - params/2*math.Log(float64(n))
}

// Cluster runs the SimPoint-style model selection: for each k in
// [1, MaxK], the best of Restarts k-means runs is scored with BIC, and the
// smallest k reaching BICThreshold x best BIC wins. Working storage comes
// from an internal pool; use ClusterWith to manage it explicitly.
func Cluster(points []Point, cfg Config) (*Result, error) {
	s := scratchPool.Get().(*Scratch)
	res, err := ClusterWith(points, cfg, s)
	scratchPool.Put(s)
	return res, err
}

// ClusterWith is Cluster against caller-owned scratch, for callers that
// run many studies back to back and want to pin the working set. The
// result never aliases the scratch.
func ClusterWith(points []Point, cfg Config, s *Scratch) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("simpoint: no points to cluster")
	}
	for i, p := range points {
		if len(p.Vec) == 0 {
			return nil, fmt.Errorf("simpoint: point %d has empty vector", i)
		}
		if len(p.Vec) != len(points[0].Vec) {
			return nil, fmt.Errorf("simpoint: point %d dimension %d != %d", i, len(p.Vec), len(points[0].Vec))
		}
		if p.Weight < 0 {
			return nil, fmt.Errorf("simpoint: point %d has negative weight", i)
		}
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 20
	}
	if cfg.BICThreshold <= 0 || cfg.BICThreshold > 1 {
		cfg.BICThreshold = 0.9
	}
	if cfg.Restarts <= 0 {
		cfg.Restarts = 5
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 100
	}
	maxK := cfg.MaxK
	if maxK > n {
		maxK = n
	}
	dim := len(points[0].Vec)
	s.grow(n, dim, maxK)
	rng := xrand.Derive(cfg.Seed, "simpoint-kmeans")
	tau := boundMargin(points)

	for k := 1; k <= maxK; k++ {
		for r := 0; r < cfg.Restarts; r++ {
			start := *rng
			distortion := s.kmeansOnce(points, k, dim, rng, cfg.MaxIterations, tau)
			score := bic(points, s.assign[:n], k, dim, distortion, s.counts)
			if r == 0 || score > s.candBIC[k-1] {
				s.candBIC[k-1] = score
				s.candRng[k-1] = start
			}
		}
	}

	bestBIC := math.Inf(-1)
	for k := 1; k <= maxK; k++ {
		if s.candBIC[k-1] > bestBIC {
			bestBIC = s.candBIC[k-1]
		}
	}
	chosen := maxK
	for k := 1; k <= maxK; k++ {
		// BIC can be negative; use the SimPoint rule on the score range.
		if scoreReaches(s.candBIC[k-1], bestBIC, cfg.BICThreshold, s.candBIC[0]) {
			chosen = k
			break
		}
	}
	// kmeansOnce is a function of its arguments alone, so replaying the
	// winning restart from its saved rng state rebuilds its assignment and
	// centroids bit for bit; no k needs its candidate kept meanwhile.
	replay := s.candRng[chosen-1]
	s.kmeansOnce(points, chosen, dim, &replay, cfg.MaxIterations, tau)
	return buildResult(points, chosen, dim, s.assign[:n], s.cent[:chosen*dim], s.candBIC[chosen-1]), nil
}

// scoreReaches implements SimPoint's "within threshold of the best BIC"
// rule, mapping scores to [0,1] over the observed range so the rule works
// for negative BIC values too.
func scoreReaches(score, best, threshold, worst float64) bool {
	if best == worst {
		return true
	}
	norm := (score - worst) / (best - worst)
	return norm >= threshold
}

// buildResult assembles the Result from the winning candidate. assign and
// cents alias reusable scratch, so everything the Result keeps is copied.
func buildResult(points []Point, k, dim int, assign []int, cents []float64, score float64) *Result {
	res := &Result{K: k, Assign: append([]int(nil), assign...), BIC: score}
	res.Representatives = make([]int, k)
	res.Multipliers = make([]float64, k)
	res.ClusterWeights = make([]float64, k)

	bestD := make([]float64, k)
	clusterWeight := make([]float64, k)
	var totalWeight float64
	for c := range bestD {
		bestD[c] = math.Inf(1)
		res.Representatives[c] = -1
	}
	for i, a := range assign {
		clusterWeight[a] += points[i].Weight
		totalWeight += points[i].Weight
		if d := sqDist(points[i].Vec, cents[a*dim:(a+1)*dim]); d < bestD[a] {
			bestD[a] = d
		}
	}
	// Representative: among the members (essentially) nearest the
	// centroid, take the median occurrence. Perfectly periodic workloads
	// produce exact signature ties across iterations; always taking the
	// first occurrence would systematically select the earliest (often
	// atypical) iteration of each code region.
	const tie = 1e-12
	candidates := make([][]int, k)
	for i, a := range assign {
		if sqDist(points[i].Vec, cents[a*dim:(a+1)*dim]) <= bestD[a]+tie {
			candidates[a] = append(candidates[a], i)
		}
	}
	for c := range candidates {
		if n := len(candidates[c]); n > 0 {
			res.Representatives[c] = candidates[c][n/2]
		}
	}
	for c := 0; c < k; c++ {
		rep := res.Representatives[c]
		if rep < 0 {
			// Empty cluster: no representative, zero multiplier.
			res.Multipliers[c] = 0
			continue
		}
		if w := points[rep].Weight; w > 0 {
			res.Multipliers[c] = clusterWeight[c] / w
		} else {
			// Weightless representative: fall back to member count.
			var members float64
			for _, a := range assign {
				if a == c {
					members++
				}
			}
			res.Multipliers[c] = members
		}
		if totalWeight > 0 {
			res.ClusterWeights[c] = clusterWeight[c] / totalWeight
		}
	}
	return res
}
