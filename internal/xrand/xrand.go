// Package xrand provides the deterministic random number generation used
// throughout the reproduction. Every stochastic component (k-means seeding,
// thread interleave jitter, measurement noise) draws from a named sub-stream
// derived from a single experiment seed, so whole tables and figures
// regenerate bit-identically.
package xrand

import "math"

// splitmix64 advances the given state and returns the next output.
// It is the mixer recommended for seeding xoshiro-family generators and is
// also a perfectly fine generator on its own for simulation noise.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a small, fast, deterministic generator (splitmix64 core). The zero
// value is a valid generator seeded with 0; prefer New or Derive.
type Rand struct {
	state uint64
	// cached second normal variate for Box-Muller
	hasGauss bool
	gauss    float64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Derive returns an independent generator for a named sub-stream. Two
// distinct names never yield the same stream for the same parent seed, and
// deriving does not disturb the parent.
func Derive(seed uint64, name string) *Rand {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	// One scramble round so textually similar names diverge fully.
	return &Rand{state: splitmix64(&h)}
}

// Derive returns a child generator whose stream is independent of the
// receiver's future outputs.
func (r *Rand) Derive(name string) *Rand {
	return Derive(r.Uint64(), name)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 { return splitmix64(&r.state) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded output.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul128(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bLo>>32 + aHi*bLo
	u := t&mask + aLo*bHi
	hi = aHi*bHi + t>>32 + u>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *Rand) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	u, v, s := r.polar()
	f := polarScale(s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// NormFloat64s fills dst with the variates len(dst) NormFloat64 calls
// would return, in order, and leaves the generator exactly as those calls
// would, including a cached second variate when the last pair is split.
// The rejection loop draws every pair first; their scale factors are then
// computed together, four at a time on hosts with the transform kernel.
//
//bp:noalloc
func (r *Rand) NormFloat64s(dst []float64) {
	if len(dst) > 0 && r.hasGauss {
		dst[0] = r.gauss
		r.hasGauss = false
		dst = dst[1:]
	}
	var s [64]float64 // the pairs' accepted s, then their scale factors
	for len(dst) > 0 {
		n := min((len(dst)+1)/2, len(s))
		var last float64 // the last pair's v
		for i := 0; i < n; i++ {
			u, v, si := r.polar()
			dst[2*i], s[i], last = u, si, v
			if 2*i+1 < len(dst) {
				dst[2*i+1] = v
			}
		}
		polarScales(s[:n])
		for i, f := range s[:n] {
			dst[2*i] *= f
			if 2*i+1 < len(dst) {
				dst[2*i+1] *= f
			}
		}
		// Like NormFloat64, keep the last pair's second variate: cached
		// when dst ends before it, spent otherwise.
		r.gauss, r.hasGauss = last*s[n-1], len(dst) < 2*n
		dst = dst[min(2*n, len(dst)):]
	}
}

// polar draws uniform points in the square [-1, 1)² until one falls
// strictly inside the unit circle, and returns it with its squared radius
// s: the Marsaglia polar method's rejection step.
func (r *Rand) polar() (u, v, s float64) {
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			return u, v, s
		}
	}
}

// polarScale is the polar method's transform: the factor that turns an
// accepted point (u, v) with squared radius s into two normal variates.
func polarScale(s float64) float64 { return math.Sqrt(-2 * math.Log(s) / s) }

// polarScales replaces every s in (0, 1) with polarScale(s), bit for bit:
// the vector kernel takes whole blocks of four where the host has it.
//
//bp:noalloc
func polarScales(s []float64) {
	i := 0
	if useSIMD {
		i = len(s) &^ 3
		polarScalesSIMD(s[:i])
	}
	for ; i < len(s); i++ {
		s[i] = polarScale(s[i])
	}
}

// Noise returns a multiplicative noise factor 1 + cv*N(0,1), floored at
// 0.01 so a pathological draw cannot produce a non-positive measurement.
func (r *Rand) Noise(cv float64) float64 { return NoiseFactor(cv, r.NormFloat64()) }

// NoiseFactor is the factor Noise returns when its normal draw is z.
func NoiseFactor(cv, z float64) float64 {
	f := 1 + cv*z
	if f < 0.01 {
		f = 0.01
	}
	return f
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly reorders the n elements addressed by swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
