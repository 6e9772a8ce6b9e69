// Package sigvec builds the Signature Vectors (SV) of the paper's Step 2:
// the per-barrier-point BBV and LDV are normalised, projected down to a
// small dimension with a deterministic random projection (as SimPoint 3.2
// projects BBVs to 15 dimensions), and concatenated.
package sigvec

// DefaultDim is the projected dimension used for each of the BBV and LDV
// halves of a signature vector (SimPoint's default is 15).
const DefaultDim = 15

// projEntry returns the {-1,+1} entry (i,j) of the seeded random projection
// matrix, derived by hashing so the matrix never needs materialising.
func projEntry(i, j int, seed uint64) float64 {
	x := seed ^ uint64(i)<<32 ^ uint64(j)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x&1 == 0 {
		return 1
	}
	return -1
}

// Options selects which signature components to use. The paper combines
// BBV and LDV; the ablation benches compare against each alone.
type Options struct {
	Dim    int
	UseBBV bool
	UseLDV bool
	Seed   uint64
}
