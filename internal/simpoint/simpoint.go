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
	"slices"
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
// the distance bounds of the accelerated assignment step, the ball
// partition, the blocked point copy the distance kernel reads, and the
// per-k best-restart record, all in flat one-slice backings (centroid c
// lives at [c*dim:(c+1)*dim], point i's bounds at [i*k:(i+1)*k]).
//
// The per-point state — minDist, vassign and the bounds — and the blocked
// copy follow view order: the points ball-major when the partition
// engages (see partition), input order otherwise. assign, the centroid
// sums, the seeding draw and the distortion stay in input order, so the
// result does not depend on the partition.
//
// A Scratch may be reused across studies of any size — grow reslices
// when capacity suffices and every cell is overwritten before it is
// read, so a reused Scratch produces bit-identical results to a fresh one
// (the property test in scratch_test.go holds this) — and it keeps no
// reference to a caller's vectors once ClusterWith returns. A Scratch is
// not safe for concurrent use; Cluster draws from an internal pool,
// ClusterWith takes an explicit one.
type Scratch struct {
	cent    []float64 // working centroids, k*dim, for the current k-means run
	assign  []int     // working assignment in input order, n
	vassign []int     // the same assignment in view order; aliases assign without a partition
	counts  []int     // per-cluster member counts, k
	moved   []bool    // per cluster: the last reassign changed its members, k
	minDist []float64 // k-means++ seeding state, n padded to whole blocks

	// blk is the points' blocked copy (see lanes) in view order, built
	// once per ClusterWith when the AVX2 kernels are on; lane holds one
	// block's distances.
	blk  []float64
	lane [lanes]float64

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

	// The ball partition of the current study (see partition); balls is 0
	// when it is off. view holds the points ball-major — ball b is
	// view[start[b]:start[b+1]], its leader first — with view[j] input
	// point order[j] and input point i at view[pos[i]]. rho[b] is the
	// largest distance of a member of ball b from its leader.
	// seedBound[t] and bound[t] hold, for block t of the view, what the
	// ball tests of seedPass and reassign read.
	balls     int
	view      []Point     // n
	order     []int       // n
	pos       []int       // n
	vbuf      []int       // n, vassign's own backing
	start     []int       // balls+1
	rho       []float64   // balls
	seedBound []float64   // blocks of n
	bound     []ballBound // blocks of n

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
	s.vassign = s.assign
	s.balls = 0
	s.counts = resize(s.counts, maxK)
	s.moved = resize(s.moved, maxK)
	s.minDist = resize(s.minDist, blocks(n)*lanes)
	s.upper = resize(s.upper, n)
	s.lower = resize(s.lower, n*maxK)
	s.gap = resize(s.gap, maxK*maxK)
	s.near = resize(s.near, maxK)
	s.prev = resize(s.prev, maxK*dim)
	s.drift = resize(s.drift, maxK)
	s.candBIC = resize(s.candBIC, maxK)
	s.candRng = resize(s.candRng, maxK)
}

// pack lays the points out in s.blk for the distance kernel and zeroes
// the padding lanes of the last block. Without the kernels it does nothing.
// A blocked copy more than twice the size this study needs was left by a
// larger one: pack drops it rather than keep, say, LULESH's 2.4 MB pooled
// for the small studies that follow.
func (s *Scratch) pack(points []Point, dim int) {
	if !useSIMD {
		return
	}
	nb := blocks(len(points))
	if cap(s.blk) > 2*nb*dim*lanes {
		s.blk = nil
	}
	s.blk = resize(s.blk, nb*dim*lanes)
	for i := range nb * lanes {
		base := (i/lanes)*dim*lanes + i%lanes
		if i >= len(points) {
			for j := range dim {
				s.blk[base+j*lanes] = 0
			}
			continue
		}
		for j, v := range points[i].Vec {
			s.blk[base+j*lanes] = v
		}
	}
}

// prepare sizes s for the points at up to maxK clusters, partitions them
// into balls where that pays, packs the blocked copy in view order, and
// returns τ (see boundMargin).
func (s *Scratch) prepare(points []Point, dim, maxK int) float64 {
	n := len(points)
	s.grow(n, dim, maxK)
	tau := boundMargin(points)
	if !math.IsInf(tau, 1) && n >= 4*maxK*maxK {
		most := n / (4 * maxK)
		s.view = resize(s.view, n)
		s.order = resize(s.order, n)
		s.pos = resize(s.pos, n)
		s.vbuf = resize(s.vbuf, n)
		s.start = resize(s.start, most+1)
		s.rho = resize(s.rho, most)
		s.seedBound = resize(s.seedBound, blocks(n))
		s.bound = resize(s.bound, blocks(n))
		s.partition(points, maxK, tau)
	}
	s.pack(s.viewOf(points), dim)
	return tau
}

// ballRadius is r₀/τ: a ball reaches 0.01 of the spread R from its leader
// (τ = 1e-9·R).
const ballRadius = 1e7

// partition groups the points into balls for the ball tests of seedPass
// and reassign (Pelleg & Moore's blacklisting, KDD 1999, on a flat
// partition). Each point, in input order, joins the first ball whose
// leader lies within r₀ = ballRadius·τ of it, or leads a new ball; a
// ball's radius ρ is its farthest member's distance. The partition
// engages only with at least maxK and at most n/(4·maxK) balls: fewer
// clumps than clusters prune little, and the balls×k leader distances
// reassign measures per Lloyd iteration must stay below a quarter of a
// distance per point. prepare calls it only when n ≥ 4·maxK², below
// which no ball count passes both tests, and with τ finite; it stops
// scanning as soon as the balls outnumber n/(4·maxK). When it engages,
// view, order, pos and start hold the ball-major order, stable within a
// ball so that each ball's leader comes first, and vassign its own
// backing.
//
//bp:noalloc
func (s *Scratch) partition(points []Point, maxK int, tau float64) {
	n := len(points)
	r2 := (ballRadius * tau) * (ballRadius * tau)
	most := len(s.rho)
	ball := s.pos[:n]     // each point's ball, until pos is placed
	leader := s.order[:n] // each ball's leader, until order is placed
	rho2 := s.rho[:most]  // squared radii, until the square root below
	balls := 0
	for i := range points {
		x := points[i].Vec
		b, d := 0, 0.0
		for ; b < balls; b++ {
			if d = sqDist(x, points[leader[b]].Vec); d <= r2 {
				break
			}
		}
		if b == balls {
			if balls == most {
				return
			}
			leader[b], rho2[b], d = i, 0, 0
			balls++
		}
		ball[i] = b
		rho2[b] = max(rho2[b], d)
	}
	if balls < maxK {
		return
	}
	// A stable counting sort: count each ball's members into start[b+1],
	// turn the counts into first slots, hand the slots out in input order,
	// then shift the ends the hand-out left back into starts.
	start := s.start[:balls+1]
	clear(start)
	for _, b := range ball {
		start[b+1]++
	}
	for b := 1; b < balls; b++ {
		start[b] += start[b-1]
	}
	for i, b := range ball {
		s.pos[i] = start[b]
		start[b]++
	}
	copy(start[1:], start[:balls])
	start[0] = 0
	for i, j := range s.pos[:n] {
		s.order[j] = i
		s.view[j] = points[i]
	}
	for b := range rho2[:balls] {
		s.rho[b] = math.Sqrt(rho2[b])
	}
	s.balls = balls
	s.vassign = s.vbuf[:n]
}

// viewOf returns the points in view order: ball-major when the partition
// engaged, else points itself.
func (s *Scratch) viewOf(points []Point) []Point {
	if s.balls == 0 {
		return points
	}
	return s.view[:len(points)]
}

var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// simdMinOpen is the fewest points of a block that a seeding pass must
// measure for the distance kernel to take the whole block. A lone open
// point is cheaper measured by sqDist, which costs about a third of a
// kernel block; on the canonical LULESH and HPCG discovery runs,
// thresholds 1 to 4 cluster within noise of each other, and using the
// kernel on the first pass only is 1.5x slower on LULESH.
const simdMinOpen = 2

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
// loop's own code, in input order, except that an update after iteration
// 0 with no empty cluster re-sums only the clusters whose members changed
// (see resum). Seeding and the assignment step walk view order, which
// decides only which distances they measure.
// Stale scratch contents never leak into the result: seeding overwrites
// cent, minDist, both assignments and every bound, moveBounds overwrites
// drift and the gaps before they are read, seedPass and reassign rewrite
// the ball bounds before they read them, and iteration 0's full update
// recounts counts and clears moved before any decision reads them.
//
// s must have been prepared for points (see prepare).
//
//bp:noalloc
func (s *Scratch) kmeansOnce(points []Point, k, dim int, rng *xrand.Rand, maxIter int, tau float64) float64 {
	n := len(points)
	view := s.viewOf(points)
	cent := s.cent[:k*dim]
	s.seed(points, view, k, dim, rng, tau)

	assign := s.assign[:n]
	for iter := 0; iter < maxIter; iter++ {
		if iter > 0 {
			s.moveBounds(n, k, dim)
		}
		changed := s.reassign(view, k, dim, tau)
		if iter > 0 && !changed {
			break
		}
		copy(s.prev[:k*dim], cent)
		if iter == 0 || slices.Contains(s.counts[:k], 0) {
			s.update(points, k, dim)
		} else {
			s.resum(points, k, dim)
		}
	}
	var distortion float64
	for i, a := range assign {
		distortion += sqDist(points[i].Vec, cent[a*dim:(a+1)*dim])
	}
	return distortion
}

// update is the plain loop's centroid update: every centroid becomes the
// mean of its members, summed in index order, and an empty cluster is
// re-seeded on the point farthest from its centroid. That scan runs
// mid-update, so it reads the lower-index centroids already divided and
// the higher-index ones still as sums, exactly as the plain loop does.
//
//bp:noalloc
func (s *Scratch) update(points []Point, k, dim int) {
	cent := s.cent[:k*dim]
	assign := s.assign[:len(points)]
	counts := s.counts[:k]
	for c := range counts {
		clear(cent[c*dim : (c+1)*dim])
		counts[c] = 0
		s.moved[c] = false
	}
	for i, a := range assign {
		counts[a]++
		addRow(cent[a*dim:(a+1)*dim], points[i].Vec)
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

// resum is update for an iteration in which every cluster has members: it
// re-sums only the clusters the last reassign moved a point into or out
// of. Any other cluster has the member set of the previous update, which
// summed in the same order to the same bits, so its centroid stands. The
// counts are reassign's running counts.
//
//bp:noalloc
func (s *Scratch) resum(points []Point, k, dim int) {
	cent := s.cent[:k*dim]
	moved := s.moved[:k]
	for c, m := range moved {
		if m {
			clear(cent[c*dim : (c+1)*dim])
		}
	}
	for i, a := range s.assign[:len(points)] {
		if moved[a] {
			addRow(cent[a*dim:(a+1)*dim], points[i].Vec)
		}
	}
	for c, m := range moved {
		if m {
			inv := 1 / float64(s.counts[c])
			for j := c * dim; j < (c+1)*dim; j++ {
				cent[j] *= inv
			}
			moved[c] = false
		}
	}
}

// seed places the k-means++ seeds in s.cent and leaves each point's
// nearest seed (strict <, lowest index) in both assignments, its exact
// distance to it in s.upper, and a lower bound on its distance to every
// seed in s.lower — the state Lloyd iteration 0 starts from. A new seed c
// is not measured against a point x whose nearest seed so far, at
// distance u, proves it farther than u + τ (see seedPass), so c could not
// have lowered minDist. minDist therefore holds exactly the plain
// seeding's values, and the weighted draws, which sum minDist in input
// order as the plain loop does, pick the same seeds.
//
//bp:noalloc
func (s *Scratch) seed(points, view []Point, k, dim int, rng *xrand.Rand, tau float64) {
	n := len(points)
	cent := s.cent[:k*dim]
	minDist := s.minDist[:n]
	assign := s.vassign[:n]
	upper := s.upper[:n]
	lower := s.lower[:n*k]
	partitioned := s.balls > 0

	first := rng.Intn(n)
	copy(cent[:dim], points[first].Vec)
	if useSIMD {
		sqDistBlocks(s.minDist[:blocks(n)*lanes], s.blk, cent[:dim])
	} else {
		for i := range minDist {
			minDist[i] = sqDist(view[i].Vec, cent[:dim])
		}
	}
	var total float64
	for i, d := range minDist {
		assign[i] = 0
		upper[i] = math.Sqrt(d)
		lower[i*k] = upper[i]
		total += d
	}
	if partitioned {
		total = s.inputTotal(n)
	}
	for nc := 1; nc < k; nc++ {
		var next int
		if total <= 0 {
			next = rng.Intn(n)
		} else {
			next = s.draw(n, rng.Float64()*total)
		}
		copy(cent[nc*dim:(nc+1)*dim], points[next].Vec)
		s.gapRow(nc, k, dim)
		total = s.seedPass(view, nc, k, dim, tau)
	}
	s.nearest(k)
	if partitioned {
		for j, i := range s.order[:n] {
			s.assign[i] = assign[j]
		}
	}
}

// inputTotal returns the sum of minDist over the partitioned view in
// input order, the plain seeding's order.
//
//bp:noalloc
func (s *Scratch) inputTotal(n int) float64 {
	var total float64
	for _, j := range s.pos[:n] {
		total += s.minDist[j]
	}
	return total
}

// draw returns the input index of the point a k-means++ draw of r picks:
// the first whose running sum of minDist, in input order, reaches r.
//
//bp:noalloc
func (s *Scratch) draw(n int, r float64) int {
	minDist := s.minDist[:n]
	acc := 0.0
	if s.balls == 0 {
		for i, d := range minDist {
			if acc += d; acc >= r {
				return i
			}
		}
		return n - 1
	}
	for i, j := range s.pos[:n] {
		if acc += minDist[j]; acc >= r {
			return i
		}
	}
	return n - 1
}

// seedPass measures the points against the new seed nc and returns the
// sum of the updated minDist in input order, the next draw's total.
// Without a partition, view order is input order and seedRange measures
// the whole view. With one, a block of the view that its weakest ball
// bound d(leader, c) − ρ ≤ d(x, c) (see seedBounds) rules out for every
// point is done without the per-point tests (see ballSkips), seedRange
// measures each run of blocks in between, and the total is summed
// afterwards in input order.
//
//bp:noalloc
func (s *Scratch) seedPass(view []Point, nc, k, dim int, tau float64) float64 {
	n := len(view)
	if s.balls == 0 {
		return s.seedRange(view, nc, k, dim, tau, 0, n)
	}
	bound := s.seedBound[:blocks(n)]
	s.seedBounds(view, s.cent[nc*dim:(nc+1)*dim])
	for b := 0; b < n; {
		e := b // [b, e) is a run of blocks the ball test leaves open
		for e < n && !s.ballSkips(e, min(e+lanes, n), nc, k, bound[e/lanes], tau) {
			e += lanes
		}
		if e > b {
			s.seedRange(view, nc, k, dim, tau, b, min(e, n))
		}
		b = e + lanes
	}
	return s.inputTotal(n)
}

// seedRange measures the view points [from, to), from a block start, against
// the new seed nc block by block and returns the sum of their updated
// minDist in view order. A point x whose nearest seed so far, c_a at
// distance u, is skipped when d(x, c) ≥ d(c, c_a) − u exceeds u + τ. A
// block with at least simdMinOpen points the bound cannot prune goes to
// the distance kernel whole. Measuring a point the bound would have
// skipped only replaces its lower bound with the exact distance: its
// nearest seed still beats the new one, so minDist, assign and upper
// come out as the scalar loop leaves them.
//
//bp:noalloc
func (s *Scratch) seedRange(view []Point, nc, k, dim int, tau float64, from, to int) float64 {
	n := len(view)
	c := s.cent[nc*dim : (nc+1)*dim]
	g := s.gap[nc*k : (nc+1)*k]
	minDist := s.minDist[:n]
	assign := s.vassign[:n]
	upper := s.upper[:n]
	lower := s.lower[:n*k]
	var total float64
	for b := from; b < to; b += lanes {
		e := min(b+lanes, to)
		vec := false
		if useSIMD {
			open := 0
			for i := b; i < e; i++ {
				if u := upper[i]; !(2*g[assign[i]]-u > u+tau) {
					open++
				}
			}
			if vec = open >= simdMinOpen; vec {
				sqDistBlocks(s.lane[:], s.blk[b*dim:], c)
			}
		}
		for i := b; i < e; i++ {
			u := upper[i]
			if lb := 2*g[assign[i]] - u; !vec && lb > u+tau {
				lower[i*k+nc] = lb
			} else {
				d := s.lane[i-b]
				if !vec {
					d = sqDist(view[i].Vec, c)
				}
				lower[i*k+nc] = math.Sqrt(d)
				if d < minDist[i] {
					minDist[i] = d
					assign[i] = nc
					upper[i] = lower[i*k+nc]
				}
			}
			total += minDist[i]
		}
	}
	return total
}

// ballSkips reports whether the ball bound bb rules the new seed nc out
// for every point of the block [b, e), and if so records it as their
// lower bound.
//
//bp:noalloc
func (s *Scratch) ballSkips(b, e, nc, k int, bb, tau float64) bool {
	for _, u := range s.upper[b:e] {
		if !(bb > u+tau) {
			return false
		}
	}
	for i := b; i < e; i++ {
		s.lower[i*k+nc] = bb
	}
	return true
}

// seedBounds sets s.seedBound[t], for each block t of the view, to a
// lower bound on the distance from any of its points to the new seed c:
// the least d(leader, c) − ρ over the balls the block holds points of.
//
//bp:noalloc
func (s *Scratch) seedBounds(view []Point, c []float64) {
	bound := s.seedBound[:blocks(len(view))]
	for q := range s.balls {
		lb := math.Sqrt(sqDist(view[s.start[q]].Vec, c)) - s.rho[q]
		t := s.start[q] / lanes
		if s.start[q]%lanes != 0 { // a block the balls before q share
			bound[t] = min(bound[t], lb)
			t++
		}
		for ; t*lanes < s.start[q+1]; t++ {
			bound[t] = lb
		}
	}
}

// ballBound is what reassign's ball test reads of one ball in one Lloyd
// iteration, from the distances d₁ ≤ d₂ of its leader to the nearest
// centroid near and to the next: a member x of near has d(x, near) ≤
// reach = d₁ + ρ and d(x, c) ≥ d₂ − ρ for every other centroid c, so it
// keeps near when min(u, reach) < keep = d₂ − ρ − τ. A block of the view
// that holds points of several balls takes the weakest of their bounds,
// or none (keep = −Inf) when their nearest centroids differ.
type ballBound struct {
	near        int
	reach, keep float64
}

// reassign is one Lloyd assignment step over the bounds, in view order,
// and reports whether any assignment changed. Without a partition,
// reassignRange steps the whole view. With one, a block of the view
// whose every point its ball bound keeps on its centroid (see ballBound,
// ballKeeps) is done without a distance, and reassignRange steps each
// run of blocks in between and mirrors its moves into the input-order
// assignment.
//
//bp:noalloc
func (s *Scratch) reassign(view []Point, k, dim int, tau float64) bool {
	n := len(view)
	if s.balls == 0 {
		return s.reassignRange(view, k, dim, tau, 0, n)
	}
	s.leadBounds(view, k, dim, tau)
	bound := s.bound[:blocks(n)]
	changed := false
	for b := 0; b < n; {
		e := b // [b, e) is a run of blocks the ball test leaves open
		for e < n && !s.ballKeeps(e, min(e+lanes, n), &bound[e/lanes]) {
			e += lanes
		}
		if e > b && s.reassignRange(view, k, dim, tau, b, min(e, n)) {
			changed = true
			for j := b; j < min(e, n); j++ {
				s.assign[s.order[j]] = s.vassign[j]
			}
		}
		b = e + lanes
	}
	return changed
}

// ballKeeps reports whether the ball bound bb keeps every point of the
// block [b, e) on its centroid: each is assigned to bb.near, and
// min(u, reach) < keep.
//
//bp:noalloc
func (s *Scratch) ballKeeps(b, e int, bb *ballBound) bool {
	for i := b; i < e; i++ {
		if !(s.vassign[i] == bb.near && min(s.upper[i], bb.reach) < bb.keep) {
			return false
		}
	}
	return true
}

// reassignRange is the assignment step for the view points [from, to). A
// point keeps its centroid a without a single distance when its upper
// bound u plus τ stays below every other centroid's lower bound or
// half-gap to a: d(x, c) ≥ 2·gap(a, c) − u. Any other point gets its
// bound on a tightened to the exact distance and scans the centroids in
// index order with strict <, as the plain loop does, measuring only those
// the tightened bounds cannot exclude. Each move updates the view-order
// assignment and s.counts, and marks both clusters in s.moved, for
// resum.
//
//bp:noalloc
func (s *Scratch) reassignRange(view []Point, k, dim int, tau float64, from, to int) bool {
	n := len(view)
	cent := s.cent[:k*dim]
	assign := s.vassign[:n]
	counts := s.counts[:k]
	moved := s.moved[:k]
	upper := s.upper[:n]
	lower := s.lower[:n*k]
	gap := s.gap[:k*k]
	near := s.near[:k]
	changed := false
	for i := from; i < to; i++ {
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
		x := view[i].Vec
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
			counts[a]--
			counts[best]++
			moved[a], moved[best] = true, true
			changed = true
		}
	}
	return changed
}

// leadBounds measures every ball's leader against the k centroids and
// sets s.bound for every block of the view.
//
//bp:noalloc
func (s *Scratch) leadBounds(view []Point, k, dim int, tau float64) {
	cent := s.cent[:k*dim]
	bound := s.bound[:blocks(len(view))]
	for q := range s.balls {
		x := view[s.start[q]].Vec
		near, d1, d2 := 0, math.Inf(1), math.Inf(1)
		for c := range k {
			d := math.Sqrt(sqDist(x, cent[c*dim:(c+1)*dim]))
			if d < d1 {
				near, d1, d2 = c, d, d1
			} else if d < d2 {
				d2 = d
			}
		}
		rho := s.rho[q]
		bb := ballBound{near: near, reach: d1 + rho, keep: d2 - rho - tau}
		t := s.start[q] / lanes
		if s.start[q]%lanes != 0 { // a block the balls before q share
			if prev := &bound[t]; prev.near == near {
				prev.reach, prev.keep = max(prev.reach, bb.reach), min(prev.keep, bb.keep)
			} else {
				prev.keep = math.Inf(-1)
			}
			t++
		}
		for ; t*lanes < s.start[q+1]; t++ {
			bound[t] = bb
		}
	}
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
	for i, a := range s.vassign[:n] {
		upper[i] += drift[a]
	}
	shiftRows(s.lower[:n*k], drift)
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
	tau := s.prepare(points, dim, maxK)
	rng := xrand.Derive(cfg.Seed, "simpoint-kmeans")

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
	res := buildResult(points, chosen, dim, s.assign[:n], s.cent[:chosen*dim], s.candBIC[chosen-1])
	if s.balls > 0 {
		clear(s.view[:n]) // drop the caller's vectors
	}
	return res, nil
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
