// The weighted sampler's bracket pass on four lanes (DESIGN.md §18): an item
// per lane, with brackets' operations in brackets' order and no FMA, so
// every lo and hi is brackets', bit for bit. A lane's exponent becomes a
// float64 through the 2^52 bias (exact below 2^52), and its mantissa's top
// log2Bits bits index log2Mid through a gather.

#include "textflag.h"

DATA bc<>+0(SB)/8, $0x4330000000000000 // 2^52: the exponent field ORed into its mantissa
DATA bc<>+8(SB)/8, $4503599627371519.0 // 2^52 + 1023
DATA bc<>+16(SB)/8, $2047              // 1<<log2Bits - 1
DATA bc<>+24(SB)/8, $-1022.0
DATA bc<>+32(SB)/8, $0xFFF0000000000000 // -Inf
GLOBL bc<>(SB), RODATA|NOPTR, $40

// func bracketsAVX2(lo, hi, u, inv, margin, table *float64, nvec int)
TEXT ·bracketsAVX2(SB), NOSPLIT, $0-56
	MOVQ         lo+0(FP), DI
	MOVQ         hi+8(FP), SI
	MOVQ         u+16(FP), AX
	MOVQ         inv+24(FP), BX
	MOVQ         margin+32(FP), DX
	MOVQ         table+40(FP), R8
	MOVQ         nvec+48(FP), CX
	VBROADCASTSD bc<>+0(SB), Y15
	VBROADCASTSD bc<>+8(SB), Y14
	VBROADCASTSD bc<>+16(SB), Y13
	VBROADCASTSD bc<>+24(SB), Y12
	VBROADCASTSD bc<>+32(SB), Y11
	VPXOR        Y10, Y10, Y10

loop:
	VMOVDQU    (AX), Y0               // bits of u
	VPSRLQ     $52, Y0, Y1            // the exponent field
	VPSRLQ     $41, Y0, Y2
	VPAND      Y13, Y2, Y2            // the mantissa's top log2Bits bits
	VPCMPEQQ   Y3, Y3, Y3             // the gather consumes its mask
	VGATHERQPD Y3, (R8)(Y2*8), Y4     // log2Mid[…]
	VPOR       Y15, Y1, Y5
	VSUBPD     Y14, Y5, Y5            // float64(exponent - 1023)
	VADDPD     Y4, Y5, Y5             // x
	VPCMPEQQ   Y10, Y1, Y6            // zero or subnormal
	VBLENDVPD  Y6, Y12, Y5, Y5        // x = -1022 there
	VMOVUPD    (BX), Y7
	VMULPD     Y5, Y7, Y7             // inv·x
	VMOVUPD    (DX), Y8
	VSUBPD     Y8, Y7, Y9             // lo = inv·x - margin
	VBLENDVPD  Y6, Y11, Y9, Y9        // lo = -Inf there
	VADDPD     Y8, Y7, Y7             // hi = inv·x + margin
	VMOVUPD    Y9, (DI)
	VMOVUPD    Y7, (SI)
	ADDQ       $32, AX
	ADDQ       $32, BX
	ADDQ       $32, DX
	ADDQ       $32, DI
	ADDQ       $32, SI
	DECQ       CX
	JNZ        loop
	VZEROUPPER
	RET
