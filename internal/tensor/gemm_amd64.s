// AVX2 kernels for the three batched GEMM forms (DESIGN.md §17). Lanes run
// along the contiguous output dimension only, so every output element keeps
// the scalar kernels' reduction: the same products in the same order, VMULPD
// then VADDPD, never FMA. The Go callers (batch.go, tensor.go) have checked
// shapes and slice lengths; every address below is derived from n, k, m.

#include "textflag.h"

// (The macros come before the first TEXT so that vet's asmdecl pass, which
// does not expand them, attributes their frame references to no function.)

// MatMul and MatMulNT share one tiling: c(n×m) in 4-row × 8-column register
// tiles (Y0-Y7: row r of the tile is Y(2r), Y(2r+1)); n >= 4, k >= 1, m >= 8.
// The last tile of a row or column range that is not a multiple of the tile
// starts at n-4 / m-8 instead: it recomputes a few elements, to the same
// bits, and no tail code exists. TILE_BEGIN opens both loops and leaves
// SI = i0, DI = j0, AX = a at row i0, DX = k, R8 = 8k, R9 = 24k, R10 = 8m,
// R11 = 24m, R12/R13 = a/c at row i0, Y0-Y7 = 0; the kernel's k loop follows
// (BX is its b walk) and TILE_END stores the tile and closes the loops.
#define TILE_BEGIN \
	MOVQ    k+32(FP), R8 \
	SHLQ    $3, R8 \
	LEAQ    (R8)(R8*2), R9 \
	MOVQ    m+40(FP), R10 \
	SHLQ    $3, R10 \
	LEAQ    (R10)(R10*2), R11 \
	XORQ    SI, SI \
rows: \
	MOVQ    n+24(FP), CX \
	SUBQ    $4, CX \
	CMPQ    SI, CX \
	CMOVQGT CX, SI \
	MOVQ    SI, R12 \
	IMULQ   R8, R12 \
	ADDQ    a+0(FP), R12 \
	MOVQ    SI, R13 \
	IMULQ   R10, R13 \
	ADDQ    c+16(FP), R13 \
	XORQ    DI, DI \
cols: \
	MOVQ    m+40(FP), CX \
	SUBQ    $8, CX \
	CMPQ    DI, CX \
	CMOVQGT CX, DI \
	MOVQ    R12, AX \
	VXORPD  Y0, Y0, Y0 \
	VXORPD  Y1, Y1, Y1 \
	VXORPD  Y2, Y2, Y2 \
	VXORPD  Y3, Y3, Y3 \
	VXORPD  Y4, Y4, Y4 \
	VXORPD  Y5, Y5, Y5 \
	VXORPD  Y6, Y6, Y6 \
	VXORPD  Y7, Y7, Y7 \
	MOVQ    k+32(FP), DX

#define TILE_END \
	LEAQ    (R13)(DI*8), CX \
	VMOVUPD Y0, (CX) \
	VMOVUPD Y1, 32(CX) \
	VMOVUPD Y2, (CX)(R10*1) \
	VMOVUPD Y3, 32(CX)(R10*1) \
	VMOVUPD Y4, (CX)(R10*2) \
	VMOVUPD Y5, 32(CX)(R10*2) \
	VMOVUPD Y6, (CX)(R11*1) \
	VMOVUPD Y7, 32(CX)(R11*1) \
	ADDQ    $8, DI \
	CMPQ    DI, m+40(FP) \
	JLT     cols \
	ADDQ    $4, SI \
	CMPQ    SI, n+24(FP) \
	JLT     rows \
	VZEROUPPER \
	RET

// One row of MatMul's tile for one k: acc += a[i][k] * b[k][j0:j0+8], the b
// vectors in Y8/Y9, with the a[i][k] == 0 skip: the product is masked to +0
// where a[i][k] is ±0 (compare NEQ_UQ against Y13 = 0, so NaN is not
// skipped). acc + 0 == acc because acc starts at +0 and a sum of doubles is
// -0 only when both terms are, so acc is never -0; the mask is what keeps
// 0·Inf and 0·NaN out, as the scalar `continue` does.
#define ROW_SKIP(aik, acc0, acc1) \
	VBROADCASTSD aik, Y10 \
	VCMPPD       $4, Y13, Y10, Y14 \
	VMULPD       Y8, Y10, Y11 \
	VANDPD       Y14, Y11, Y11 \
	VADDPD       Y11, acc0, acc0 \
	VMULPD       Y9, Y10, Y12 \
	VANDPD       Y14, Y12, Y12 \
	VADDPD       Y12, acc1, acc1

// func gemmSkipAVX2(a, b, c *float64, n, k, m int)
// c(n×m) = a(n×k) · b(k×m), dense row-major. BX walks b's rows at column j0.
TEXT ·gemmSkipAVX2(SB), NOSPLIT, $0-48
	TILE_BEGIN
	MOVQ   b+8(FP), BX
	LEAQ   (BX)(DI*8), BX
	VXORPD Y13, Y13, Y13

kloop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	ROW_SKIP((AX), Y0, Y1)
	ROW_SKIP((AX)(R8*1), Y2, Y3)
	ROW_SKIP((AX)(R8*2), Y4, Y5)
	ROW_SKIP((AX)(R9*1), Y6, Y7)
	ADDQ $8, AX
	ADDQ R10, BX
	DECQ DX
	JNZ  kloop
	TILE_END

// MatMulNT's lanes also run along the output columns, which are rows of b:
// two k of four rows of b are loaded and transposed in registers, so that
// bk0/bk1 hold b[o:o+4][k] and b[o:o+4][k+1] (Y8/Y9 scratch).
#define NT_LOAD2(brows, bk0, bk1) \
	VMOVUPD     (brows), X8 \
	VINSERTF128 $1, (brows)(R8*2), Y8, Y8 \
	VMOVUPD     (brows)(R8*1), X9 \
	VINSERTF128 $1, (brows)(R9*1), Y9, Y9 \
	VUNPCKLPD   Y9, Y8, bk0 \
	VUNPCKHPD   Y9, Y8, bk1

// The same for a single k (the odd last one): bk = b[o:o+4][k].
#define NT_LOAD1(brows, bk) \
	VMOVSD      (brows), X8 \
	VMOVHPD     (brows)(R8*1), X8, X8 \
	VMOVSD      (brows)(R8*2), X9 \
	VMOVHPD     (brows)(R9*1), X9, X9 \
	VINSERTF128 $1, X9, Y8, bk

// One row of the tile for one k: acc += a[i][k] * b[j0:j0+8][k], the product
// rounded before the add (Y8, Y9, Y14 scratch).
#define NT_ROW(aik, bl, br, acc0, acc1) \
	VBROADCASTSD aik, Y14 \
	VMULPD       bl, Y14, Y8 \
	VADDPD       Y8, acc0, acc0 \
	VMULPD       br, Y14, Y9 \
	VADDPD       Y9, acc1, acc1

// One k of the whole tile, a's four rows read at byte offset off.
#define NT_STEP(off, bl, br) \
	NT_ROW(off(AX), bl, br, Y0, Y1) \
	NT_ROW(off(AX)(R8*1), bl, br, Y2, Y3) \
	NT_ROW(off(AX)(R8*2), bl, br, Y4, Y5) \
	NT_ROW(off(AX)(R9*1), bl, br, Y6, Y7)

// func gemmNTAVX2(a, b, c *float64, n, k, m int)
// c(n×m) = a(n×k) · b(m×k)ᵀ, dense row-major. BX walks rows j0..j0+3 of b
// along k, R14 rows j0+4..j0+7: the tile's left and right halves.
TEXT ·gemmNTAVX2(SB), NOSPLIT, $0-48
	TILE_BEGIN
	MOVQ  DI, BX
	IMULQ R8, BX
	ADDQ  b+8(FP), BX
	LEAQ  (BX)(R8*4), R14
	SUBQ  $2, DX
	JLT   klast

k2:
	NT_LOAD2(BX, Y10, Y11)
	NT_LOAD2(R14, Y12, Y13)
	NT_STEP(0, Y10, Y12)
	NT_STEP(8, Y11, Y13)
	ADDQ $16, AX
	ADDQ $16, BX
	ADDQ $16, R14
	SUBQ $2, DX
	JGE  k2

klast:
	ADDQ $2, DX
	JZ   kdone
	NT_LOAD1(BX, Y10)
	NT_LOAD1(R14, Y12)
	NT_STEP(0, Y10, Y12)

kdone:
	TILE_END

// Eight zero qwords, then eight all-ones: the four qwords at index r select
// the lanes l with r+l >= 8.
DATA tailMask<>+64(SB)/8, $-1
DATA tailMask<>+72(SB)/8, $-1
DATA tailMask<>+80(SB)/8, $-1
DATA tailMask<>+88(SB)/8, $-1
DATA tailMask<>+96(SB)/8, $-1
DATA tailMask<>+104(SB)/8, $-1
DATA tailMask<>+112(SB)/8, $-1
DATA tailMask<>+120(SB)/8, $-1
GLOBL tailMask<>(SB), RODATA|NOPTR, $128

// One vector of c += ((g0·b0 + g1·b1) + g2·b2) + g3·b3: g0..g3 broadcast in
// Y4..Y7, the four batch rows' b in registers; lanes outside mask keep c.
#define TN_GROUP(b0, b1, b2, b3, cvec, mask) \
	VMULPD    b0, Y4, Y0 \
	VMULPD    b1, Y5, Y1 \
	VADDPD    Y1, Y0, Y0 \
	VMULPD    b2, Y6, Y1 \
	VADDPD    Y1, Y0, Y0 \
	VMULPD    b3, Y7, Y1 \
	VADDPD    Y1, Y0, Y0 \
	VMOVUPD   cvec, Y1 \
	VADDPD    Y0, Y1, Y0 \
	VBLENDVPD mask, Y0, Y1, Y0 \
	VMOVUPD   Y0, cvec

// One vector of c += g·b for a single batch row, g broadcast in Y4.
#define TN_SINGLE(b0, cvec, mask) \
	VMULPD    b0, Y4, Y0 \
	VMOVUPD   cvec, Y1 \
	VADDPD    Y0, Y1, Y0 \
	VBLENDVPD mask, Y0, Y1, Y0 \
	VMOVUPD   Y0, cvec

// AX = a at batch row SI, CX = c at column DI, DX = k: one pass over c's rows.
#define TN_PASS \
	MOVQ  SI, AX \
	IMULQ R8, AX \
	ADDQ  a+0(FP), AX \
	MOVQ  c+16(FP), CX \
	LEAQ  (CX)(DI*8), CX \
	MOVQ  k+32(FP), DX

// func gemmTNAccAVX2(a, b, c *float64, n, k, m int)
// c(k×m) += aᵀ(n×k) · b(n×m), dense row-major; n >= 1, k >= 1, m >= 8.
// For each 8-column strip and each group of four batch rows, the rows' b
// strip is loaded once (Y8-Y15) and swept down the k rows of c: row o adds
// the group's term with the scalar kernel's grouping, after its
// all-four-zero skip (a real branch on the integer bits: c may be -0 here,
// so adding a masked +0 would not be the identity). The n%4 last batch rows
// follow one at a time with the g == 0 skip. Every c element thus still
// accumulates its groups in batch order. A strip that would overrun starts
// at m-8 and blends only its new lanes back (masks Y2/Y3): c += is not
// idempotent, so the overlap may not be recomputed.
// AX walks a's row(s) along o, BX = b at (row SI, column DI), CX walks c's
// strip down its rows, DX rows of c left, SI batch row, DI j0, R8 = 8k,
// R9 = 24k, R10 = 8m, R11 = 24m, R12 scratch, R13 = n-4.
TEXT ·gemmTNAccAVX2(SB), NOSPLIT, $0-48
	MOVQ k+32(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	MOVQ m+40(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	MOVQ n+24(FP), R13
	SUBQ $4, R13
	XORQ DI, DI

strip:
	MOVQ    m+40(FP), CX
	SUBQ    DI, CX
	MOVQ    $8, R12
	CMPQ    CX, R12
	CMOVQGT R12, CX
	LEAQ    tailMask<>(SB), R12
	VMOVDQU (R12)(CX*8), Y2
	VMOVDQU 32(R12)(CX*8), Y3
	MOVQ    m+40(FP), CX
	SUBQ    $8, CX
	CMPQ    DI, CX
	CMOVQGT CX, DI
	XORQ    SI, SI
	MOVQ    b+8(FP), BX
	LEAQ    (BX)(DI*8), BX

group:
	CMPQ    SI, R13
	JGT     single
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VMOVUPD (BX)(R10*1), Y10
	VMOVUPD 32(BX)(R10*1), Y11
	VMOVUPD (BX)(R10*2), Y12
	VMOVUPD 32(BX)(R10*2), Y13
	VMOVUPD (BX)(R11*1), Y14
	VMOVUPD 32(BX)(R11*1), Y15
	TN_PASS

grouprow:
	MOVQ (AX), R12
	ORQ  (AX)(R8*1), R12
	ORQ  (AX)(R8*2), R12
	ORQ  (AX)(R9*1), R12
	SHLQ $1, R12
	JZ   groupnext
	VBROADCASTSD (AX), Y4
	VBROADCASTSD (AX)(R8*1), Y5
	VBROADCASTSD (AX)(R8*2), Y6
	VBROADCASTSD (AX)(R9*1), Y7
	TN_GROUP(Y8, Y10, Y12, Y14, (CX), Y2)
	TN_GROUP(Y9, Y11, Y13, Y15, 32(CX), Y3)

groupnext:
	ADDQ $8, AX
	ADDQ R10, CX
	DECQ DX
	JNZ  grouprow
	ADDQ $4, SI
	LEAQ (BX)(R10*4), BX
	JMP  group

single:
	CMPQ    SI, n+24(FP)
	JGE     stripdone
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	TN_PASS

singlerow:
	MOVQ (AX), R12
	SHLQ $1, R12
	JZ   singlenext
	VBROADCASTSD (AX), Y4
	TN_SINGLE(Y8, (CX), Y2)
	TN_SINGLE(Y9, 32(CX), Y3)

singlenext:
	ADDQ $8, AX
	ADDQ R10, CX
	DECQ DX
	JNZ  singlerow
	INCQ SI
	ADDQ R10, BX
	JMP  single

stripdone:
	ADDQ $8, DI
	CMPQ DI, m+40(FP)
	JLT  strip
	VZEROUPPER
	RET
