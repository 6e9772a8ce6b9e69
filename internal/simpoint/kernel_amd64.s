//go:build amd64 && !purego

#include "textflag.h"

// The k-means kernels. Every one is bit-identical to the scalar loop it
// replaces: each output element is computed by one lane with the same
// operations in the same order, using unfused VSUBPD/VMULPD/VADDPD (never
// VFMADD: a fused multiply-add skips the product's rounding), and lanes
// never mix.

// func sqDistBlocksAVX2(out, blk, c []float64)
//
// For each block b of len(out)/8 blocks of eight points laid out as
// blk[(b*dim+j)*8+lane], dim = len(c):
//
//	out[b*8+lane] = sqDist(point, c)
//
// Each lane sums its own (x[j]-c[j])² over j in index order from +0, as
// sqDist does. Two blocks run side by side while two remain, so four
// independent add chains hide the add latency; a last odd block runs
// alone.
TEXT ·sqDistBlocksAVX2(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), R8
	MOVQ blk_base+24(FP), SI
	MOVQ c_base+48(FP), DX
	MOVQ c_len+56(FP), CX
	SHRQ $3, R8  // R8 = blocks left
	MOVQ CX, R10
	SHLQ $6, R10 // R10 = bytes per block: dim * 8 lanes * 8 bytes

pair:
	CMPQ R8, $2
	JLT  single
	LEAQ (SI)(R10*1), R9 // the second block of the pair
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

pairdim:
	CMPQ AX, CX
	JGE  pairdone
	VBROADCASTSD (DX)(AX*8), Y4
	VMOVUPD (SI), Y5
	VMOVUPD 32(SI), Y6
	VMOVUPD (R9), Y7
	VMOVUPD 32(R9), Y8
	VSUBPD Y4, Y5, Y5
	VSUBPD Y4, Y6, Y6
	VSUBPD Y4, Y7, Y7
	VSUBPD Y4, Y8, Y8
	VMULPD Y5, Y5, Y5
	VMULPD Y6, Y6, Y6
	VMULPD Y7, Y7, Y7
	VMULPD Y8, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $64, SI
	ADDQ $64, R9
	INCQ AX
	JMP  pairdim

pairdone:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	MOVQ R9, SI // R9 ends where the next pair starts
	SUBQ $2, R8
	JMP  pair

single:
	TESTQ R8, R8
	JZ    done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ AX, AX

singledim:
	CMPQ AX, CX
	JGE  singledone
	VBROADCASTSD (DX)(AX*8), Y4
	VMOVUPD (SI), Y5
	VMOVUPD 32(SI), Y6
	VSUBPD Y4, Y5, Y5
	VSUBPD Y4, Y6, Y6
	VMULPD Y5, Y5, Y5
	VMULPD Y6, Y6, Y6
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	ADDQ $64, SI
	INCQ AX
	JMP  singledim

singledone:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)

done:
	VZEROUPPER
	RET

// func addRowAVX2(row, v []float64)
//
// row[j] += v[j] for j in [0, len(row)), len(v) >= len(row): a 4-wide
// body and a scalar tail.
TEXT ·addRowAVX2(SB), NOSPLIT, $0-48
	MOVQ row_base+0(FP), DI
	MOVQ row_len+8(FP), CX
	MOVQ v_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX // DX = len &^ 3: end of the 4-wide body

addbody:
	CMPQ AX, DX
	JGE  addtail
	VMOVUPD (DI)(AX*8), Y0
	VADDPD  (SI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  addbody

addtail:
	CMPQ AX, CX
	JGE  adddone
	VMOVSD (DI)(AX*8), X0
	VADDSD (SI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  addtail

adddone:
	VZEROUPPER
	RET

// func shiftRowsAVX2(rows, d []float64)
//
// rows[r*k+c] -= d[c] for every row r of the len(rows)/k rows, k =
// len(d) >= 1, len(rows) a multiple of k: a 4-wide body and a scalar tail
// per row.
TEXT ·shiftRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ rows_base+0(FP), DI
	MOVQ rows_len+8(FP), R8
	MOVQ d_base+24(FP), SI
	MOVQ d_len+32(FP), CX
	LEAQ (DI)(R8*8), R9 // end of rows
	MOVQ CX, DX
	ANDQ $-4, DX // DX = k &^ 3: end of each row's 4-wide body

shiftrow:
	CMPQ DI, R9
	JGE  shiftdone
	XORQ AX, AX

shiftbody:
	CMPQ AX, DX
	JGE  shifttail
	VMOVUPD (DI)(AX*8), Y0
	VSUBPD  (SI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  shiftbody

shifttail:
	CMPQ AX, CX
	JGE  shiftnext
	VMOVSD (DI)(AX*8), X0
	VSUBSD (SI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  shifttail

shiftnext:
	LEAQ (DI)(CX*8), DI
	JMP  shiftrow

shiftdone:
	VZEROUPPER
	RET
