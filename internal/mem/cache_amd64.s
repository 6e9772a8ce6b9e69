//go:build amd64 && !purego

#include "textflag.h"

// The set kernels. Each probes a whole recency-ordered set at once and
// leaves it exactly as fillSet would: the hit way, or on a miss the last
// way, is found from the compare mask, and the ways in front of it move
// down one with enc written to way 0, all in one blend per register.
//
// Rules for this file:
//   - Move into vector registers only with VEX-encoded instructions
//     (VMOVQ, VPBROADCASTQ, never a legacy `MOVQ AX, X0`): a legacy SSE
//     instruction run while the upper YMM halves are dirty pays an
//     SSE/AVX transition. A prototype of fill8AVX2 with one legacy move
//     measured about 170 ns a call instead of 12 ns on a 2-vCPU Xeon VM.
//     With VZEROUPPER on every exit, as here, a Fill micro-benchmark on
//     the same VM read 5.8 ns either way, so the rule guards against
//     the state a caller or a later edit leaves, not a measured cost.
//   - Find the first set bit with BSF, not TZCNT: TZCNT is BMI1, which
//     internal/cpu does not probe. BSF leaves its destination undefined
//     for a zero source, so the miss way is moved in with CMOV on ZF.

// wayIndex is 0..15, one way number per quadword lane.
DATA wayIndex<>+0(SB)/8, $0
DATA wayIndex<>+8(SB)/8, $1
DATA wayIndex<>+16(SB)/8, $2
DATA wayIndex<>+24(SB)/8, $3
DATA wayIndex<>+32(SB)/8, $4
DATA wayIndex<>+40(SB)/8, $5
DATA wayIndex<>+48(SB)/8, $6
DATA wayIndex<>+56(SB)/8, $7
DATA wayIndex<>+64(SB)/8, $8
DATA wayIndex<>+72(SB)/8, $9
DATA wayIndex<>+80(SB)/8, $10
DATA wayIndex<>+88(SB)/8, $11
DATA wayIndex<>+96(SB)/8, $12
DATA wayIndex<>+104(SB)/8, $13
DATA wayIndex<>+112(SB)/8, $14
DATA wayIndex<>+120(SB)/8, $15
GLOBL wayIndex<>(SB), RODATA|NOPTR, $128

// func fill8AVX2(set *[8]uint64, enc uint64) bool
//
// Y1, Y2 hold ways 0-3 and 4-7. The shifted set [enc, w0, ..., w6] is
// built by rotating each register up one lane (VPERMQ $0x93) and
// blending in the lane that crosses from the register before; lanes up
// to the hit (or last) way take it, later lanes keep their way.
TEXT ·fill8AVX2(SB), NOSPLIT, $0-17
	MOVQ         set+0(FP), DI
	VPBROADCASTQ enc+8(FP), Y0
	VMOVDQU      (DI), Y1
	VMOVDQU      32(DI), Y2

	// AX = one bit per way holding enc; CX = the first such way, or 7.
	VPCMPEQQ  Y0, Y1, Y3
	VPCMPEQQ  Y0, Y2, Y4
	VMOVMSKPD Y3, AX
	VMOVMSKPD Y4, BX
	SHLQ      $4, BX
	ORQ       BX, AX
	MOVQ      $7, CX
	BSFQ      AX, DX
	CMOVQNE   DX, CX
	SETNE     ret+16(FP)

	// Y5, Y6 = [enc, w0, w1, w2], [w3, w4, w5, w6].
	VPERMQ   $0x93, Y1, Y5
	VPERMQ   $0x93, Y2, Y6
	VPBLENDD $0x03, Y5, Y6, Y6
	VPBLENDD $0x03, Y0, Y5, Y5

	// Y3, Y4 = lanes past way CX, which keep their way.
	VMOVQ        CX, X7
	VPBROADCASTQ X7, Y7
	VMOVDQU      wayIndex<>+0(SB), Y3
	VMOVDQU      wayIndex<>+32(SB), Y4
	VPCMPGTQ     Y7, Y3, Y3
	VPCMPGTQ     Y7, Y4, Y4
	VPBLENDVB    Y3, Y1, Y5, Y1
	VPBLENDVB    Y4, Y2, Y6, Y2
	VMOVDQU      Y1, (DI)
	VMOVDQU      Y2, 32(DI)
	VZEROUPPER
	RET

// func fill16AVX2(set *[16]uint64, enc uint64) bool
//
// fill8AVX2 over four registers: Y1-Y4 hold ways 0-3, 4-7, 8-11 and
// 12-15.
TEXT ·fill16AVX2(SB), NOSPLIT, $0-17
	MOVQ         set+0(FP), DI
	VPBROADCASTQ enc+8(FP), Y0
	VMOVDQU      (DI), Y1
	VMOVDQU      32(DI), Y2
	VMOVDQU      64(DI), Y3
	VMOVDQU      96(DI), Y4

	// AX = one bit per way holding enc; CX = the first such way, or 15.
	VPCMPEQQ  Y0, Y1, Y5
	VPCMPEQQ  Y0, Y2, Y6
	VPCMPEQQ  Y0, Y3, Y7
	VPCMPEQQ  Y0, Y4, Y8
	VMOVMSKPD Y5, AX
	VMOVMSKPD Y6, BX
	SHLQ      $4, BX
	ORQ       BX, AX
	VMOVMSKPD Y7, BX
	SHLQ      $8, BX
	ORQ       BX, AX
	VMOVMSKPD Y8, BX
	SHLQ      $12, BX
	ORQ       BX, AX
	MOVQ      $15, CX
	BSFQ      AX, DX
	CMOVQNE   DX, CX
	SETNE     ret+16(FP)

	// Y5-Y8 = [enc, w0, w1, w2], [w3, ..., w6], [w7, ..., w10],
	// [w11, ..., w14].
	VPERMQ   $0x93, Y1, Y5
	VPERMQ   $0x93, Y2, Y6
	VPERMQ   $0x93, Y3, Y7
	VPERMQ   $0x93, Y4, Y8
	VPBLENDD $0x03, Y7, Y8, Y8
	VPBLENDD $0x03, Y6, Y7, Y7
	VPBLENDD $0x03, Y5, Y6, Y6
	VPBLENDD $0x03, Y0, Y5, Y5

	// Y9-Y12 = lanes past way CX, which keep their way.
	VMOVQ        CX, X13
	VPBROADCASTQ X13, Y13
	VMOVDQU      wayIndex<>+0(SB), Y9
	VMOVDQU      wayIndex<>+32(SB), Y10
	VMOVDQU      wayIndex<>+64(SB), Y11
	VMOVDQU      wayIndex<>+96(SB), Y12
	VPCMPGTQ     Y13, Y9, Y9
	VPCMPGTQ     Y13, Y10, Y10
	VPCMPGTQ     Y13, Y11, Y11
	VPCMPGTQ     Y13, Y12, Y12
	VPBLENDVB    Y9, Y1, Y5, Y1
	VPBLENDVB    Y10, Y2, Y6, Y2
	VPBLENDVB    Y11, Y3, Y7, Y3
	VPBLENDVB    Y12, Y4, Y8, Y4
	VMOVDQU      Y1, (DI)
	VMOVDQU      Y2, 32(DI)
	VMOVDQU      Y3, 64(DI)
	VMOVDQU      Y4, 96(DI)
	VZEROUPPER
	RET
