package tensor

import (
	"fmt"
	"math"
	"testing"

	"noisyeval/internal/rng"
)

const guard = 11 // sentinel elements on each side of a kernel output

// fillOperand draws a rows×cols operand whose Data starts at an odd element
// offset of its backing array (so vector loads are not 16- or 32-byte
// aligned): normals, a zeroFrac share of zeros of either sign, and — with
// special — a few ±Inf and NaN planted.
func fillOperand(g *rng.RNG, rows, cols int, zeroFrac float64, special bool) *Mat {
	back := make([]float64, rows*cols+1)
	m := &Mat{Rows: rows, Cols: cols, Data: back[1:]}
	for i := range m.Data {
		switch {
		case g.Bool(zeroFrac):
			m.Data[i] = 0
			if g.Bool(0.5) {
				m.Data[i] = math.Copysign(0, -1)
			}
		case special && g.Bool(0.03):
			m.Data[i] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[g.IntN(3)]
		default:
			m.Data[i] = g.Normal(0, 1)
		}
	}
	return m
}

// guardedOutput returns a rows×cols matrix placed inside a larger slice of
// sentinels, initialised by init, plus that slice.
func guardedOutput(rows, cols int, init func(i int) float64) (*Mat, []float64) {
	back := make([]float64, rows*cols+2*guard)
	for i := range back {
		back[i] = sentinel(i)
	}
	m := &Mat{Rows: rows, Cols: cols, Data: back[guard : guard+rows*cols : guard+rows*cols]}
	for i := range m.Data {
		m.Data[i] = init(i)
	}
	return m, back
}

func sentinel(i int) float64 { return -1234.5 - float64(i) }

// sameBits reports bitwise equality, except that any NaN equals any NaN:
// which payload survives an add or multiply of two NaNs depends on x86
// operand order, and nothing downstream reads it.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

func checkKernel(t *testing.T, what string, got *Mat, back []float64, want *Mat) {
	t.Helper()
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: element %d (row %d col %d) = %x, generic kernel %x", what, i, i/max(got.Cols, 1), i%max(got.Cols, 1),
				math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
	for i := range back {
		if inside := i >= guard && i < guard+len(got.Data); !inside && back[i] != sentinel(i) {
			t.Fatalf("%s: guard element %d overwritten with %g", what, i-guard, back[i])
		}
	}
}

// diffKernels runs the three exported GEMMs against the portable kernels on one n, k, m with one operand mix.
func diffKernels(t *testing.T, g *rng.RNG, n, k, m int, zeroFrac float64, special bool) {
	t.Helper()
	what := func(op string) string {
		return fmt.Sprintf("%s n=%d k=%d m=%d zeros=%.1f special=%v", op, n, k, m, zeroFrac, special)
	}
	junk := func(int) float64 { return 77 } // overwritten outputs must not depend on old contents

	// c(n×m) = a(n×k) · b(m×k)ᵀ
	a, b := fillOperand(g, n, k, zeroFrac, special), fillOperand(g, m, k, zeroFrac, special)
	want := NewMat(n, m)
	matMulNTGeneric(a, b, want)
	got, back := guardedOutput(n, m, junk)
	MatMulNT(a, b, got)
	checkKernel(t, what("MatMulNT"), got, back, want)

	// c(n×m) = a(n×k) · b(k×m)
	b = fillOperand(g, k, m, zeroFrac, special)
	matMulGeneric(a, b, want)
	got, back = guardedOutput(n, m, junk)
	MatMul(a, b, got)
	checkKernel(t, what("MatMul"), got, back, want)

	// c(k×m) += a(n×k)ᵀ · b(n×m), from a c that holds zeros of both signs.
	b = fillOperand(g, n, m, zeroFrac, special)
	c0 := fillOperand(g, k, m, 0.3, false)
	want = c0.Clone()
	matMulTNAccGeneric(a, b, want)
	got, back = guardedOutput(k, m, func(i int) float64 { return c0.Data[i] })
	MatMulTNAcc(a, b, got)
	checkKernel(t, what("MatMulTNAcc"), got, back, want)
}

// TestKernelsMatchGeneric is the bit-compatibility contract of the AVX2
// kernels: every exported GEMM equals the portable Go kernel bit for bit
// (NaN ≡ NaN) on every small shape — each tile boundary, each tail, each
// below-threshold fallback — and on random larger ones, for dense, half-zero
// and ReLU-sparse operands with -0, ±Inf and NaN present, on unaligned
// operands, without touching memory around the output.
func TestKernelsMatchGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this machine: the exported kernels are the portable ones")
	}
	g := rng.New(20230915)
	for n := 0; n <= 20; n++ {
		for k := 0; k <= 20; k++ {
			for m := 0; m <= 20; m++ {
				diffKernels(t, g, n, k, m, []float64{0, 0.5, 0.9}[(n+k+m)%3], (n*k+m)%2 == 0)
			}
		}
	}
	for _, zeroFrac := range []float64{0, 0.5, 0.9} {
		for _, special := range []bool{false, true} {
			for trial := 0; trial < 150; trial++ {
				diffKernels(t, g, 1+g.IntN(130), 1+g.IntN(130), 1+g.IntN(130), zeroFrac, special)
			}
		}
	}
}
