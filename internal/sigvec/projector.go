package sigvec

import (
	"fmt"
	"math"
)

// Projector applies one seeded ±1 random projection repeatedly, the way
// the discovery hot loop needs it: the projection rows (the per-input-index
// {-1,+1} patterns projEntry derives by hashing) are materialised once and
// reused, L1 normalisation is folded into the projection pass instead of
// materialising a normalised copy, and results are written into
// caller-owned storage. One Projector serves every barrier point of a
// run, so projecting a point allocates nothing.
//
// The arithmetic is that of projecting the L1-normalised dense vector
// with the matrix of ±1 entries, scaled by 1/sqrt(dim): the same
// normalised values accumulated in the same index order with the same
// final scaling. The package's tests hold it bit for bit to that plain
// composition, and the goldens in internal/core pin its outputs.
type Projector struct {
	dim   int
	seed  uint64
	scale float64
	rows  []float64 // rows[i*dim : (i+1)*dim] = projEntry(i, ·, seed)
	nRows int
}

// NewProjector returns a projector onto dim dimensions for the seed.
func NewProjector(dim int, seed uint64) *Projector {
	if dim <= 0 {
		panic(fmt.Sprintf("sigvec: non-positive projection dimension %d", dim))
	}
	return &Projector{dim: dim, seed: seed, scale: 1 / math.Sqrt(float64(dim))}
}

// Dim returns the projected dimension.
func (p *Projector) Dim() int { return p.dim }

// ensureRows extends the materialised projection matrix to n input rows.
func (p *Projector) ensureRows(n int) {
	for i := p.nRows; i < n; i++ {
		for j := 0; j < p.dim; j++ {
			p.rows = append(p.rows, projEntry(i, j, p.seed))
		}
	}
	if n > p.nRows {
		p.nRows = n
	}
}

// accumulate adds x*row into out, one rounded product and one rounded
// sum per index. The explicit float64 conversion forces the product to
// round before the add, forbidding the compiler from fusing
// x*row[j]+out[j] into an FMA on architectures where it otherwise would
// (arm64), so every host computes the same bits.
//
//bp:noalloc
func accumulate(out, row []float64, x float64) {
	row = row[:len(out)] // bounds-check hint
	for j := range out {
		out[j] += float64(x * row[j])
	}
}

// ProjectSparseInto writes the L1-normalised projection of an ordered
// sparse view into out, which must have length Dim: val[k] is the dense
// entry at index idx[k], idx is ascending, omitted entries are zero.
// Because a dense pass both sums and accumulates in index order and skips
// zeros, consuming the sparse view directly is bit-identical to it. It
// allocates only to extend the cached projection rows the first time a
// higher index is seen.
//
//bp:noalloc
func (p *Projector) ProjectSparseInto(out []float64, idx []int32, val []float64) {
	p.checkOut(out) //bp:lint-ok noalloc inlined panic formatting, never runs on the hot path
	if len(idx) != len(val) {
		//bp:lint-ok noalloc panic formatting, never runs on the hot path
		panic(fmt.Sprintf("sigvec: sparse view with %d indices, %d values", len(idx), len(val)))
	}
	var sum float64
	for _, x := range val {
		sum += math.Abs(x)
	}
	for j := range out {
		out[j] = 0
	}
	if sum != 0 && len(idx) > 0 {
		p.ensureRows(int(idx[len(idx)-1]) + 1)
		for k, i := range idx {
			x := val[k]
			if x == 0 {
				continue
			}
			if xn := x / sum; xn != 0 {
				accumulate(out, p.rows[int(i)*p.dim:(int(i)+1)*p.dim], xn)
			}
		}
	}
	for j := range out {
		out[j] *= p.scale
	}
}

func (p *Projector) checkOut(out []float64) {
	if len(out) != p.dim {
		panic(fmt.Sprintf("sigvec: output length %d, want projection dimension %d", len(out), p.dim))
	}
}

// Builder assembles whole signature vectors with zero allocations per
// point: each component Options selects is L1-normalised (so signatures
// compare shape, not magnitude), projected to Options.Dim dimensions
// (DefaultDim when zero), and the BBV half is followed by the LDV half.
type Builder struct {
	opts Options
	bbv  *Projector
	ldv  *Projector
}

// NewBuilder returns a Builder for the options. It panics when the
// options select neither component.
func NewBuilder(opts Options) *Builder {
	if !opts.UseBBV && !opts.UseLDV {
		panic("sigvec: signature must use at least one component")
	}
	if opts.Dim == 0 {
		opts.Dim = DefaultDim
	}
	b := &Builder{opts: opts}
	if opts.UseBBV {
		b.bbv = NewProjector(opts.Dim, opts.Seed^0xb1b1)
	}
	if opts.UseLDV {
		b.ldv = NewProjector(opts.Dim, opts.Seed^0x1d1d)
	}
	return b
}

// Dims returns the length of the signature vectors the Builder produces.
func (b *Builder) Dims() int {
	n := 0
	if b.opts.UseBBV {
		n += b.opts.Dim
	}
	if b.opts.UseLDV {
		n += b.opts.Dim
	}
	return n
}

// split carves out into the per-component destinations.
func (b *Builder) split(out []float64) (bbv, ldv []float64) {
	if len(out) != b.Dims() {
		panic(fmt.Sprintf("sigvec: output length %d, want %d", len(out), b.Dims()))
	}
	if b.opts.UseBBV {
		bbv, out = out[:b.opts.Dim], out[b.opts.Dim:]
	}
	if b.opts.UseLDV {
		ldv = out
	}
	return bbv, ldv
}

// BuildSparseInto writes the signature vector for ordered sparse BBV and
// LDV views (see ProjectSparseInto) into out, which must have length
// Dims; the views of a component Options disables are ignored. The
// discovery hot path feeds pin.Stream's sparse views straight through
// here: no densification, no per-point allocation.
//
//bp:noalloc
func (b *Builder) BuildSparseInto(out []float64, bbvIdx []int32, bbvVal []float64, ldvIdx []int32, ldvVal []float64) {
	dBBV, dLDV := b.split(out)
	if b.opts.UseBBV {
		b.bbv.ProjectSparseInto(dBBV, bbvIdx, bbvVal)
	}
	if b.opts.UseLDV {
		b.ldv.ProjectSparseInto(dLDV, ldvIdx, ldvVal)
	}
}
