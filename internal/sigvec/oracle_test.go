package sigvec

import "math"

// The plain dense composition the Projector and the Builder are held to,
// bit for bit: L1-normalise each component, project it with the hashed
// ±1 matrix scaled by 1/sqrt(dim), and concatenate the BBV half and the
// LDV half. It allocates on every call; the discovery pipeline used it
// before the streaming Builder replaced it, and it stays here as the
// tests' oracle.

// normalizeL1 returns v scaled to unit L1 norm (or zeros if v is all zero).
func normalizeL1(v []float64) []float64 {
	var sum float64
	for _, x := range v {
		sum += math.Abs(x)
	}
	out := make([]float64, len(v))
	if sum == 0 {
		return out
	}
	for i, x := range v {
		out[i] = x / sum
	}
	return out
}

// project maps v into dim dimensions with a seeded ±1 random projection,
// preserving relative distances in expectation (Johnson-Lindenstrauss).
func project(v []float64, dim int, seed uint64) []float64 {
	out := make([]float64, dim)
	scale := 1 / math.Sqrt(float64(dim))
	for i, x := range v {
		if x == 0 {
			continue
		}
		for j := 0; j < dim; j++ {
			out[j] += x * projEntry(i, j, seed)
		}
	}
	for j := range out {
		out[j] *= scale
	}
	return out
}

// build combines one barrier point's dense BBV and LDV into its signature
// vector under opts, as a Builder for opts must.
func build(bbv, ldv []float64, opts Options) []float64 {
	dim := opts.Dim
	if dim == 0 {
		dim = DefaultDim
	}
	var out []float64
	if opts.UseBBV {
		out = append(out, project(normalizeL1(bbv), dim, opts.Seed^0xb1b1)...)
	}
	if opts.UseLDV {
		out = append(out, project(normalizeL1(ldv), dim, opts.Seed^0x1d1d)...)
	}
	return out
}
