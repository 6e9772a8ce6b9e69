//go:build amd64 && !purego

#include "textflag.h"

// The polar transform, four lanes at a time. Each lane computes
// sqrt(-2*log(s)/s) with math.Log's amd64 assembly
// ($GOROOT/src/math/log_amd64.s) repeated operation for operation, so
// every lane is bit-identical to polarScale on the same s. Only products
// and sums Log itself rounds are used: VMULPD and VADDPD, never VFMADD,
// whose single rounding would change the result. Log's branches for zero,
// negative, infinite and NaN inputs are left out: the polar method only
// passes s in (0, 1), where Log takes none of them (subnormal s, which
// Log takes through its main path, is kept bit-identical too).
//
// Rules for this file:
//   - Move into vector registers only with VEX-encoded instructions
//     (VMOVQ, VBROADCASTSD, never a legacy `MOVQ AX, X0`): a legacy SSE
//     instruction between AVX ones can cost a state transition per call.
//   - Convert the exponent k to a double with the 1.5·2⁵² magic
//     constant: adding k to the bits of 1.5·2⁵² and subtracting 1.5·2⁵²
//     is exact for |k| < 2⁵¹, while plain 2⁵² borrows from its exponent
//     for negative k (every s below 0.5) and yields a wrong double.

#define CONST(name, bits) DATA name<>+0(SB)/8, $bits; GLOBL name<>(SB), RODATA|NOPTR, $8

CONST(mantMask, 0x000FFFFFFFFFFFFF)
CONST(half, 0x3FE0000000000000)    // 0.5
CONST(one, 0x3FF0000000000000)     // 1.0
CONST(two, 0x4000000000000000)     // 2.0
CONST(minusTwo, 0xC000000000000000) // -2.0
CONST(expMask, 0x00000000000007FF)
CONST(expBias, 0x00000000000003FE)
CONST(magic, 0x4338000000000000)   // 1.5·2⁵²
CONST(hSqrt2, 0x3FE6A09E667F3BCD)  // sqrt(2)/2
CONST(ln2Hi, 0x3FE62E42FEE00000)
CONST(ln2Lo, 0x3DEA39EF35793C76)
CONST(logL1, 0x3FE5555555555593)
CONST(logL2, 0x3FD999999997FA04)
CONST(logL3, 0x3FD2492494229359)
CONST(logL4, 0x3FCC71C51D8E78AF)
CONST(logL5, 0x3FC7466496CB03DE)
CONST(logL6, 0x3FC39A09D078C69F)
CONST(logL7, 0x3FC2F112DF3E5244)

// func polarAVX2(s []float64)
//
// s[i] = sqrt(-2*log(s[i])/s[i]) for i in [0, len(s)&^3). The comments
// name Log's variables; Y0 holds x (= s), Y1 f1 then f, Y2 k, Y3 s of
// Log, Y4 s2 then t1, R and the sums, Y5 s4, t2 then hfsq, Y6 and Y7
// the polynomials and broadcast constants. Y8-Y15 hold the constants
// used outside the polynomials.
TEXT ·polarAVX2(SB), NOSPLIT, $0-24
	MOVQ s_base+0(FP), DI
	MOVQ s_len+8(FP), CX
	SHRQ $2, CX
	JZ   done
	VBROADCASTSD mantMask<>(SB), Y8
	VBROADCASTSD half<>(SB), Y9
	VBROADCASTSD one<>(SB), Y10
	VBROADCASTSD two<>(SB), Y11
	VBROADCASTSD expMask<>(SB), Y12
	VBROADCASTSD expBias<>(SB), Y13
	VBROADCASTSD magic<>(SB), Y14
	VBROADCASTSD hSqrt2<>(SB), Y15

loop:
	VMOVUPD (DI), Y0

	// f1, ki := math.Frexp(x); k := float64(ki)
	VANDPD Y8, Y0, Y1
	VORPD  Y9, Y1, Y1   // f1 = x's mantissa with 0.5's exponent
	VPSRLQ $52, Y0, Y2
	VPAND  Y12, Y2, Y2
	VPSUBQ Y13, Y2, Y2  // ki = exponent field - 0x3FE
	VPADDQ Y14, Y2, Y2
	VSUBPD Y14, Y2, Y2  // k

	// Log's CMPSD $5 is not-less-than: if !(Sqrt2/2 < f1) { k -= 1; f1 *= 2 }
	VCMPPD $5, Y1, Y15, Y3
	VANDPD Y10, Y3, Y3  // 0 or 1
	VSUBPD Y3, Y2, Y2
	VADDPD Y10, Y3, Y3  // 1 or 2
	VMULPD Y3, Y1, Y1

	// f := f1 - 1
	VSUBPD Y10, Y1, Y1

	// s := f / (2 + f); s2 := s * s; s4 := s2 * s2
	VADDPD Y11, Y1, Y3
	VDIVPD Y3, Y1, Y3
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VBROADCASTSD logL7<>(SB), Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD logL5<>(SB), Y7
	VADDPD       Y7, Y6, Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD logL3<>(SB), Y7
	VADDPD       Y7, Y6, Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD logL1<>(SB), Y7
	VADDPD       Y7, Y6, Y6
	VMULPD       Y6, Y4, Y4

	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	VBROADCASTSD logL6<>(SB), Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD logL4<>(SB), Y7
	VADDPD       Y7, Y6, Y6
	VMULPD       Y5, Y6, Y6
	VBROADCASTSD logL2<>(SB), Y7
	VADDPD       Y7, Y6, Y6
	VMULPD       Y6, Y5, Y5

	// R := t1 + t2; hfsq := 0.5 * f * f
	VADDPD Y5, Y4, Y4
	VMULPD Y9, Y1, Y5
	VMULPD Y1, Y5, Y5

	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD       Y5, Y4, Y4
	VMULPD       Y4, Y3, Y3
	VBROADCASTSD ln2Lo<>(SB), Y7
	VMULPD       Y2, Y7, Y4
	VADDPD       Y4, Y3, Y3
	VSUBPD       Y3, Y5, Y5
	VSUBPD       Y1, Y5, Y5
	VBROADCASTSD ln2Hi<>(SB), Y7
	VMULPD       Y7, Y2, Y2
	VSUBPD       Y5, Y2, Y2 // log(x)

	// sqrt(-2 * log(x) / x)
	VBROADCASTSD minusTwo<>(SB), Y7
	VMULPD       Y7, Y2, Y2
	VDIVPD       Y0, Y2, Y2
	VSQRTPD      Y2, Y2
	VMOVUPD      Y2, (DI)

	ADDQ $32, DI
	DECQ CX
	JNZ  loop

done:
	VZEROUPPER
	RET
