// The ℓ/g bracket's kernel sums on four lanes (DESIGN.md §19). A lane is a
// pool member; the centres are broadcast one at a time, so every lane adds
// its terms in kde1d.approx's order with approx's operations — VMULPD then
// VADDPD, never FMA — and its sum is approx's, bit for bit. A term approx
// skips (t ≥ expStep·expCut, or NaN) is masked to +0, which leaves a sum of
// positive terms unchanged.

#include "textflag.h"

DATA kc<>+0(SB)/8, $2048.0               // expStep·expCut
DATA kc<>+8(SB)/8, $0.03125              // 1/expStep
DATA kc<>+16(SB)/8, $0x3FC5555555555555  // float64(1.0/6)
DATA kc<>+24(SB)/8, $0.5
DATA kc<>+32(SB)/8, $1.0
GLOBL kc<>(SB), RODATA|NOPTR, $40

// func kernelSumsAVX2(sums, xs, centers, table *float64, nvec, nc int, scale float64)
TEXT ·kernelSumsAVX2(SB), NOSPLIT, $0-56
	MOVQ         sums+0(FP), DI
	MOVQ         xs+8(FP), SI
	MOVQ         centers+16(FP), BX
	MOVQ         table+24(FP), R8
	MOVQ         nvec+32(FP), CX
	MOVQ         nc+40(FP), DX
	VBROADCASTSD scale+48(FP), Y15
	VBROADCASTSD kc<>+0(SB), Y14
	VBROADCASTSD kc<>+8(SB), Y13
	VBROADCASTSD kc<>+16(SB), Y12
	VBROADCASTSD kc<>+24(SB), Y11
	VBROADCASTSD kc<>+32(SB), Y10

group:
	VMOVUPD (SI), Y0 // four members' coordinates
	VXORPD  Y1, Y1, Y1
	MOVQ    BX, AX
	MOVQ    DX, R9
	TESTQ   R9, R9
	JZ      store

center:
	VBROADCASTSD (AX), Y2
	VSUBPD       Y2, Y0, Y2       // x - c
	VMULPD       Y15, Y2, Y2      // u = (x - c)·scale
	VMULPD       Y2, Y2, Y2       // t = u·u
	VCMPPD       $0x11, Y14, Y2, Y3 // t < expStep·expCut (LT_OQ: NaN fails)
	VCVTTPD2DQY  Y2, X4           // i = int(t)
	VCVTDQ2PD    X4, Y5
	VSUBPD       Y5, Y2, Y5
	VMULPD       Y13, Y5, Y5      // y = (t - i)·(1/expStep)
	VMULPD       Y12, Y5, Y6      // y·(1/6)
	VSUBPD       Y6, Y11, Y6      // 0.5 - …
	VMULPD       Y5, Y6, Y6       // y·(…)
	VSUBPD       Y6, Y10, Y6      // 1 - …
	VMULPD       Y5, Y6, Y6       // y·(…)
	VSUBPD       Y6, Y10, Y6      // 1 - …: the cubic
	VXORPD       Y7, Y7, Y7
	VMOVAPD      Y3, Y8           // the gather consumes its mask
	VGATHERDPD   Y8, (R8)(X4*8), Y7 // expTable[i] where t is in range
	VMULPD       Y6, Y7, Y7
	VANDPD       Y3, Y7, Y7       // +0 where approx skips the centre
	VADDPD       Y7, Y1, Y1
	ADDQ         $8, AX
	DECQ         R9
	JNZ          center

store:
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     group
	VZEROUPPER
	RET
