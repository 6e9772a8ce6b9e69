package simpoint

// lanes is the number of points in one block of Scratch.blk, the layout
// the distance kernel reads: point i's coordinate j lives at
// blk[((i/lanes)*dim+j)*lanes+i%lanes], so one vector load takes the same
// coordinate of eight consecutive points.
const lanes = 8

// blocks returns the number of lanes-point blocks that hold n points.
func blocks(n int) int { return (n + lanes - 1) / lanes }

// sqDistBlocks sets out[b*lanes+l] to sqDist(point l of block b, c) for
// the len(out)/lanes blocks at the start of blk, dim = len(c). Each lane
// sums in index order from +0 with the product rounded before the add,
// so every lane holding a real point is bit-identical to sqDist; lanes
// past the last point hold whatever their padding yields. Only called when
// useSIMD is true.
//
//bp:noalloc
func sqDistBlocks(out, blk, c []float64) {
	sqDistBlocksSIMD(out[:len(out)/lanes*lanes], blk[:len(out)/lanes*lanes*len(c)], c)
}

// addRow adds v into row element by element: row[j] += v[j].
//
//bp:noalloc
func addRow(row, v []float64) {
	v = v[:len(row)]
	if useSIMD {
		addRowSIMD(row, v)
		return
	}
	for j, x := range v {
		row[j] += x
	}
}

// shiftRows subtracts d from every len(d)-long row of rows:
// rows[r*len(d)+c] -= d[c]. d must not be empty, and len(rows) must be a
// multiple of len(d).
//
//bp:noalloc
func shiftRows(rows, d []float64) {
	rows = rows[:len(rows)/len(d)*len(d)]
	if useSIMD {
		shiftRowsSIMD(rows, d)
		return
	}
	for i := 0; i < len(rows); i += len(d) {
		row := rows[i : i+len(d)]
		for c, x := range d {
			row[c] -= x
		}
	}
}
