// AVX2 kernels for the part of training that is not a GEMM (DESIGN.md §20):
// the softmax's exp and the element-wise passes of the optimizers, ReLU and
// the Vec helpers. None of them sums across lanes, so every element gets the
// scalar code's operations in the scalar code's order. Each kernel takes
// whole 4-lane vectors (nvec >= 1 unless stated); the Go callers run the
// n mod 4 tail through the Go loops these kernels are tested against.

#include "textflag.h"

// math.archExp's constants (src/math/exp_amd64.s), each replicated across a
// vector so the packed forms can take them as memory operands; then the
// kernel's range bound and the exponent bias.
#define QUAD(off, val) \
	DATA expc<>+off+0(SB)/8, val \
	DATA expc<>+off+8(SB)/8, val \
	DATA expc<>+off+16(SB)/8, val \
	DATA expc<>+off+24(SB)/8, val

#define LOG2E 1.4426950408889634073599246810018920 // 1/LN2
#define LN2U 0.69314718055966295651160180568695068359375 // upper half LN2
#define LN2L 0.28235290563031577122588448175013436025525412068e-12 // lower half LN2

QUAD(0, $LOG2E)
QUAD(32, $LN2U)
QUAD(64, $LN2L)
QUAD(96, $0.0625)
QUAD(128, $2.4801587301587301587e-5)
QUAD(160, $1.9841269841269841270e-4)
QUAD(192, $1.3888888888888888889e-3)
QUAD(224, $8.3333333333333333333e-3)
QUAD(256, $4.1666666666666666667e-2)
QUAD(288, $1.6666666666666666667e-1)
QUAD(320, $0.5)
QUAD(352, $1.0)
QUAD(384, $2.0)
QUAD(416, $-708.0)
QUAD(448, $1023)
GLOBL expc<>(SB), RODATA|NOPTR, $480

// x = v - m (Y15 = m) and the range gate: bits = the lanes with
// -708 <= x <= 0 under ordered compares (GE_OQ, LE_OQ against Y14 = 0), so a
// NaN lane fails. Inside the range archExp takes neither its non-finite nor
// its overflow nor its denormal branch, and round(x*log2e) is in [-1021, 0].
#define EXP_LOAD(x, t0, t1, bits) \
	VMOVUPD   (DI), x \
	VSUBPD    Y15, x, x \
	VCMPPD    $0x1D, expc<>+416(SB), x, t0 \
	VCMPPD    $0x12, Y14, x, t1 \
	VANDPD    t1, t0, t0 \
	VMOVMSKPD t0, bits

// archExp's FMA path on four lanes, instruction for instruction in the PD
// forms: k = round(x*log2e) (VCVTPD2DQ rounds as CVTSD2SL does, by MXCSR),
// x -= k*LN2U, x -= k*LN2L (fused, negated), x *= 1/16, the seven-step
// Horner chain p = p*x + c, x *= p, four times t = x + 2; x *= t with the
// last closed by the fused x*t + 1, then the result times 2^k built in the
// exponent field. kx is the X half of ky; p is scratch.
#define EXP_CHAIN(x, kx, ky, p) \
	VMULPD       expc<>+0(SB), x, p \
	VCVTPD2DQY   p, kx \
	VCVTDQ2PD    kx, p \
	VFNMADD231PD expc<>+32(SB), p, x \
	VFNMADD231PD expc<>+64(SB), p, x \
	VMULPD       expc<>+96(SB), x, x \
	VMOVUPD      expc<>+128(SB), p \
	VFMADD213PD  expc<>+160(SB), x, p \
	VFMADD213PD  expc<>+192(SB), x, p \
	VFMADD213PD  expc<>+224(SB), x, p \
	VFMADD213PD  expc<>+256(SB), x, p \
	VFMADD213PD  expc<>+288(SB), x, p \
	VFMADD213PD  expc<>+320(SB), x, p \
	VFMADD213PD  expc<>+352(SB), x, p \
	VMULPD       p, x, x \
	VADDPD       expc<>+384(SB), x, p \
	VMULPD       p, x, x \
	VADDPD       expc<>+384(SB), x, p \
	VMULPD       p, x, x \
	VADDPD       expc<>+384(SB), x, p \
	VMULPD       p, x, x \
	VADDPD       expc<>+384(SB), x, p \
	VFMADD213PD  expc<>+352(SB), p, x \
	VPMOVSXDQ    kx, ky \
	VPADDQ       expc<>+448(SB), ky, ky \
	VPSLLQ       $52, ky, ky \
	VMULPD       ky, x, x \
	VMOVUPD      x, (DI)

// func expShiftAVX2(v *float64, nvec int, m float64) int
// v[i] = exp(v[i] - m) for the leading vectors whose four lanes all pass the
// gate; returns how many it finished (nvec >= 0). It stops at the first
// vector with a lane outside [-708, 0] without writing it: scalar math.Exp
// defines NaN, ±Inf, underflow and denormal results. The chain is
// latency-bound but iterations are independent, so the out-of-order core
// overlaps consecutive vectors (an explicit two-vector body measured the
// same). DI walks v, AX counts finished vectors, CX = nvec.
TEXT ·expShiftAVX2(SB), NOSPLIT, $0-32
	MOVQ         v+0(FP), DI
	MOVQ         nvec+8(FP), CX
	VBROADCASTSD m+16(FP), Y15
	VXORPD       Y14, Y14, Y14
	XORQ         AX, AX

loop:
	CMPQ AX, CX
	JGE  done
	EXP_LOAD(Y0, Y4, Y5, BX)
	CMPL BX, $15
	JNE  done
	EXP_CHAIN(Y0, X2, Y2, Y4)
	ADDQ $32, DI
	INCQ AX
	JMP  loop

done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func addAVX2(v, w *float64, nvec int)
// v += w.
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ nvec+16(FP), CX

loop:
	VMOVUPD (DI), Y0
	VADDPD  (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET

// func axpyAVX2(v, w *float64, nvec int, a float64)
// v += a*w, the product rounded before the add.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	MOVQ         v+0(FP), DI
	MOVQ         w+8(FP), SI
	MOVQ         nvec+16(FP), CX
	VBROADCASTSD a+24(FP), Y15

loop:
	VMULPD  (SI), Y15, Y1
	VMOVUPD (DI), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET

// func scaleAVX2(v *float64, nvec int, a float64)
// v *= a.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-24
	MOVQ         v+0(FP), DI
	MOVQ         nvec+8(FP), CX
	VBROADCASTSD a+16(FP), Y15

loop:
	VMULPD  (DI), Y15, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET

// func sgdStepAVX2(w, grad, vel *float64, nvec int, lr, momentum, decay float64)
// opt.SGD.Step's loop body: g = grad + decay*w; vel = momentum*vel + g;
// w -= lr*vel. Every product is rounded before it is added.
TEXT ·sgdStepAVX2(SB), NOSPLIT, $0-56
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         vel+16(FP), DX
	MOVQ         nvec+24(FP), CX
	VBROADCASTSD lr+32(FP), Y13
	VBROADCASTSD momentum+40(FP), Y14
	VBROADCASTSD decay+48(FP), Y15

loop:
	VMOVUPD (DI), Y0
	VMULPD  Y0, Y15, Y1
	VMOVUPD (SI), Y2
	VADDPD  Y1, Y2, Y1
	VMULPD  (DX), Y14, Y3
	VADDPD  Y1, Y3, Y3
	VMOVUPD Y3, (DX)
	VMULPD  Y3, Y13, Y4
	VSUBPD  Y4, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET

// func adamStepAVX2(w, grad, m, v *float64, nvec int, c *AdamConsts)
// opt.Adam.Step's loop body with its grouping: m = b1*m + (1-b1)*g;
// v = b2*v + ((1-b2)*g)*g; w -= (lr*(m/b1c)) / (sqrt(v/b2c) + eps).
// VDIVPD and VSQRTPD round as DIVSD and SQRTSD do. Y8-Y15 hold c's fields
// in declaration order.
TEXT ·adamStepAVX2(SB), NOSPLIT, $0-48
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), DX
	MOVQ         v+24(FP), BX
	MOVQ         nvec+32(FP), CX
	MOVQ         c+40(FP), AX
	VBROADCASTSD (AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15

loop:
	VMOVUPD (SI), Y0
	VMULPD  (DX), Y8, Y1
	VMULPD  Y0, Y9, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (DX)
	VMULPD  (BX), Y10, Y3
	VMULPD  Y0, Y11, Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (BX)
	VDIVPD  Y12, Y1, Y1
	VDIVPD  Y13, Y3, Y3
	VMULPD  Y1, Y14, Y1
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, BX
	DECQ    CX
	JNZ     loop
	VZEROUPPER
	RET

// func reluAVX2(out, x *float64, nvec int)
// nn.ReLU's forward in its integer form: every bit cleared where the sign
// bit is set (0 > bits as int64), so -0, negative values and sign-bit NaNs
// become +0 and everything else passes, NaN included. Not VMAXPD, whose NaN
// rule differs.
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ  out+0(FP), DI
	MOVQ  x+8(FP), SI
	MOVQ  nvec+16(FP), CX
	VPXOR Y15, Y15, Y15

loop:
	VMOVDQU  (SI), Y0
	VPCMPGTQ Y0, Y15, Y1
	VPANDN   Y0, Y1, Y0
	VMOVDQU  Y0, (DI)
	ADDQ     $32, DI
	ADDQ     $32, SI
	DECQ     CX
	JNZ      loop
	VZEROUPPER
	RET

// func reluBackAVX2(gin, grad, out *float64, nvec int)
// nn.ReLU's backward: gin = grad with every bit cleared where
// int64(bits(out) - 1) < 0, i.e. where the retained output is +0.
TEXT ·reluBackAVX2(SB), NOSPLIT, $0-32
	MOVQ     gin+0(FP), DI
	MOVQ     grad+8(FP), SI
	MOVQ     out+16(FP), DX
	MOVQ     nvec+24(FP), CX
	VPXOR    Y15, Y15, Y15
	VPCMPEQQ Y14, Y14, Y14

loop:
	VPADDQ   (DX), Y14, Y0
	VPCMPGTQ Y0, Y15, Y1
	VPANDN   (SI), Y1, Y0
	VMOVDQU  Y0, (DI)
	ADDQ     $32, DI
	ADDQ     $32, SI
	ADDQ     $32, DX
	DECQ     CX
	JNZ      loop
	VZEROUPPER
	RET
