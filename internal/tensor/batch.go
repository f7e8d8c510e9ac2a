// Batched (minibatch) kernels: the GEMM forms and the row-wise loss kernel
// that the nn batched forward/backward path is built on.
//
// Bit-compatibility contract. The batched engine builds every default bank,
// banks are content-addressed on it (core.BankKey) and the benchmark pins
// their digest, so the three GEMMs — MatMulNT, MatMul, MatMulTNAcc — owe
// every output element exactly the reduction the portable Go kernels in
// gemm_generic.go perform: the same products, added in the same order, each
// product rounded before it is added (no FMA), with the same zero skips. On
// amd64 with AVX2 (probed once at init; no option selects it) they run as
// assembly in gemm_amd64.s whose four lanes lie along the contiguous output
// dimension — lanes split outputs, never a sum — and are pinned to the Go
// kernels bit for bit by TestKernelsMatchGeneric. One exception, which
// nothing can observe: when a result is NaN, which NaN payload survives
// depends on x86 operand order; HasNaN freezes a trainer on any NaN and
// ArgMax compares false on all of them, so no payload is ever read. The
// per-sample kernels in tensor.go carry their own, older pin
// (TestPerSampleBankBitIdentical).
package tensor

import (
	"fmt"
	"math"
)

// Resize sets m to rows×cols, reusing the backing array when capacity
// allows. Contents are undefined after a resize; callers overwrite or Zero.
// A matrix that cycles through batch sizes (full minibatches plus a smaller
// tail) settles on the largest seen allocation and never reallocates.
func (m *Mat) Resize(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: Resize(%d, %d) with negative dimension", rows, cols))
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
}

// MatMulNT computes c = a * bᵀ. Shapes: a is n×k, b is m×k, c must be n×m
// and is overwritten. Both operands stream row-major, which is why the
// batched Linear forward (X·Wᵀ with W stored out×in) uses this form: every
// inner product walks two contiguous rows.
func MatMulNT(a, b, c *Mat) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulNT inner dims %d != %d", a.Cols, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulNT out shape %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Rows))
	}
	n, k, m := a.Rows, a.Cols, b.Rows
	if panelShape(c) && k > 0 {
		gemmNTAVX2(&a.Data[:n*k][0], &b.Data[:m*k][0], &c.Data[:n*m][0], n, k, m)
		return
	}
	matMulNTGeneric(a, b, c)
}

// panelShape reports whether the AVX2 tile kernels take an output of c's
// shape: at least one full 4×8 register tile (smaller outputs are not worth
// a second set of tail kernels) on a CPU that has the lanes.
func panelShape(c *Mat) bool { return useAVX2 && c.Rows >= 4 && c.Cols >= 8 }

// MatMulTNAcc accumulates c += aᵀ * b. Shapes: a is n×k, b is n×m, c must be
// k×m. This is the batched weight-gradient form dW += Gᵀ·X (G = n×out
// upstream gradients, X = n×in activations): one call replaces n rank-1
// AddOuter updates. The g == 0 skip keeps ReLU-masked gradient rows cheap.
func MatMulTNAcc(a, b, c *Mat) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTNAcc batch dims %d != %d", a.Rows, b.Rows))
	}
	if c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTNAcc out shape %dx%d, want %dx%d", c.Rows, c.Cols, a.Cols, b.Cols))
	}
	n, k, m := a.Rows, a.Cols, b.Cols
	if useAVX2 && m >= 8 && n > 0 && k > 0 {
		gemmTNAccAVX2(&a.Data[:n*k][0], &b.Data[:n*m][0], &c.Data[:k*m][0], n, k, m)
		return
	}
	matMulTNAccGeneric(a, b, c)
}

// AddRowVec adds v to every row of m (bias broadcast). v must have length
// m.Cols.
func (m *Mat) AddRowVec(v Vec) {
	checkLen("AddRowVec", m.Cols, len(v))
	n := m.Cols
	for i := 0; i < m.Rows; i++ {
		Vec(m.Data[i*n : (i+1)*n]).Add(v)
	}
}

// AccumColSums accumulates dst[j] += Σ_i m[i][j] (batched bias gradient).
// dst must have length m.Cols.
func (m *Mat) AccumColSums(dst Vec) {
	checkLen("AccumColSums", m.Cols, len(dst))
	n := m.Cols
	for i := 0; i < m.Rows; i++ {
		dst.Add(m.Data[i*n : (i+1)*n]) // row by row, so each dst[j] still sums in row order
	}
}

// ArgMaxRows fills preds[i] with the argmax of row i (first on ties,
// matching Vec.ArgMax). preds must have length m.Rows.
func (m *Mat) ArgMaxRows(preds []int) {
	checkLen("ArgMaxRows", m.Rows, len(preds))
	for i := range preds {
		preds[i] = m.Row(i).ArgMax()
	}
}

// SoftmaxCrossEntropyRows treats each row of logits as one example's class
// logits: it replaces the row in place with the cross-entropy gradient
// softmax(row) − onehot(labels[i]) and returns the summed (not averaged)
// loss, matching the per-sample convention (callers divide by the batch size
// at the optimizer step). Per-row arithmetic is identical to the per-sample
// SoftmaxInPlace + log clamp, so a batch of one reproduces LossAndBackward's
// loss exactly.
func SoftmaxCrossEntropyRows(logits *Mat, labels []int) float64 {
	checkLen("SoftmaxCrossEntropyRows", logits.Rows, len(labels))
	total := 0.0
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		label := labels[i]
		if label < 0 || label >= len(row) {
			panic(fmt.Sprintf("tensor: label %d out of %d classes", label, len(row)))
		}
		row.SoftmaxInPlace()
		total += -math.Log(math.Max(row[label], 1e-12))
		row[label] -= 1
	}
	return total
}
