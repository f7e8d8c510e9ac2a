// Package tensor provides the dense float64 linear algebra used by the
// pure-Go neural network substrate: vectors, row-major matrices, GEMM/GEMV,
// elementwise kernels, and numerically stable softmax/log-sum-exp.
//
// The package is deliberately small: it implements exactly what federated
// training of the study's 2-layer models needs, with bounds checks on entry
// and tight inner loops.
package tensor

import (
	"fmt"
	"math"
)

// Vec is a dense float64 vector.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Zero sets every element to 0.
func (v Vec) Zero() { clear(v) }

// Add adds w into v elementwise. Lengths must match.
func (v Vec) Add(w Vec) {
	checkLen("Add", len(v), len(w))
	i := lanes(len(v))
	if i > 0 {
		addAVX2(&v[0], &w[0], i/4)
	}
	for ; i < len(v); i++ {
		v[i] += w[i]
	}
}

// Sub subtracts w from v elementwise.
func (v Vec) Sub(w Vec) {
	checkLen("Sub", len(v), len(w))
	for i := range v {
		v[i] -= w[i]
	}
}

// Scale multiplies v by a.
func (v Vec) Scale(a float64) {
	i := lanes(len(v))
	if i > 0 {
		scaleAVX2(&v[0], i/4, a)
	}
	for ; i < len(v); i++ {
		v[i] *= a
	}
}

// Axpy computes v += a*w.
func (v Vec) Axpy(a float64, w Vec) {
	checkLen("Axpy", len(v), len(w))
	i := lanes(len(v))
	if i > 0 {
		axpyAVX2(&v[0], &w[0], i/4, a)
	}
	for ; i < len(v); i++ {
		v[i] += a * w[i]
	}
}

// Dot returns the inner product of v and w.
func (v Vec) Dot(w Vec) float64 {
	checkLen("Dot", len(v), len(w))
	s := 0.0
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vec) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// Sum returns the sum of elements.
func (v Vec) Sum() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the mean of elements; 0 for an empty vector.
func (v Vec) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// ArgMax returns the index of the maximum element (first on ties).
// It panics on an empty vector.
func (v Vec) ArgMax() int {
	if len(v) == 0 {
		panic("tensor: ArgMax of empty vector")
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Max returns the maximum element.
func (v Vec) Max() float64 {
	if len(v) == 0 {
		panic("tensor: Max of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// SoftmaxInPlace replaces v with softmax(v), computed stably by subtracting
// the max before exponentiation.
func (v Vec) SoftmaxInPlace() {
	if len(v) == 0 {
		return
	}
	expShift(v, v.Max())
	v.Scale(1 / v.Sum())
}

// LogSumExp returns log(sum(exp(v))) computed stably.
func (v Vec) LogSumExp() float64 {
	if len(v) == 0 {
		panic("tensor: LogSumExp of empty vector")
	}
	m := v.Max()
	sum := 0.0
	for _, x := range v {
		sum += math.Exp(x - m)
	}
	return m + math.Log(sum)
}

// HasNaN reports whether v contains a NaN or Inf.
func (v Vec) HasNaN() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

// Mat is a dense row-major matrix with Rows x Cols elements.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMat returns a zero Rows x Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: NewMat(%d, %d) with negative dimension", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices; all rows must share a length.
func FromRows(rows [][]float64) *Mat {
	if len(rows) == 0 {
		return NewMat(0, 0)
	}
	cols := len(rows[0])
	m := NewMat(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: FromRows row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set sets element (i, j).
func (m *Mat) Set(i, j int, x float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = x
}

// Row returns row i as a mutable slice view.
func (m *Mat) Row(i int) Vec {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range [0, %d)", i, m.Rows))
	}
	return Vec(m.Data[i*m.Cols : (i+1)*m.Cols])
}

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets all elements to 0.
func (m *Mat) Zero() { clear(m.Data) }

// Scale multiplies all elements by a.
func (m *Mat) Scale(a float64) { Vec(m.Data).Scale(a) }

// Add adds other into m elementwise. Shapes must match.
func (m *Mat) Add(other *Mat) {
	m.checkShape("Add", other)
	Vec(m.Data).Add(other.Data)
}

// Axpy computes m += a*other elementwise.
func (m *Mat) Axpy(a float64, other *Mat) {
	m.checkShape("Axpy", other)
	Vec(m.Data).Axpy(a, other.Data)
}

// MulVec computes out = m * x (GEMV). out must have length m.Rows and x
// length m.Cols. out may not alias x.
//
// The inner loop is unrolled with a single accumulator added in index order,
// so results stay bit-identical to the naive loop (a summation-order change
// would perturb every recorded bank; see DESIGN.md "Batched training engine").
func (m *Mat) MulVec(x, out Vec) {
	checkLen("MulVec x", m.Cols, len(x))
	checkLen("MulVec out", m.Rows, len(out))
	n := m.Cols
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*n : (i+1)*n : (i+1)*n]
		s := 0.0
		j := 0
		for ; j+4 <= n; j += 4 {
			s += row[j] * x[j]
			s += row[j+1] * x[j+1]
			s += row[j+2] * x[j+2]
			s += row[j+3] * x[j+3]
		}
		for ; j < n; j++ {
			s += row[j] * x[j]
		}
		out[i] = s
	}
}

// MulVecT computes out = mᵀ * x. out must have length m.Cols and x length
// m.Rows. out may not alias x. out is overwritten.
//
// The xi == 0 skip is load-bearing, not just a fast path: it keeps ReLU-masked
// backward passes cheap AND preserves exact results when weights hold Inf/NaN
// (0*Inf would inject NaN into otherwise-untouched lanes of diverged models,
// whose frozen behaviour the study depends on). The unrolled inner loop writes
// independent elements, so it is bit-identical to the scalar loop.
func (m *Mat) MulVecT(x, out Vec) {
	checkLen("MulVecT x", m.Rows, len(x))
	checkLen("MulVecT out", m.Cols, len(out))
	out.Zero()
	n := m.Cols
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*n : (i+1)*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			out[j] += row[j] * xi
			out[j+1] += row[j+1] * xi
			out[j+2] += row[j+2] * xi
			out[j+3] += row[j+3] * xi
		}
		for ; j < n; j++ {
			out[j] += row[j] * xi
		}
	}
}

// AddOuter accumulates m += a * x yᵀ (rank-1 update), where x has length
// m.Rows and y has length m.Cols. Used for weight gradients. The ax == 0 skip
// and element-independent unroll keep results bit-identical to the scalar
// loop (see MulVecT).
func (m *Mat) AddOuter(a float64, x, y Vec) {
	checkLen("AddOuter x", m.Rows, len(x))
	checkLen("AddOuter y", m.Cols, len(y))
	n := m.Cols
	for i := 0; i < m.Rows; i++ {
		ax := a * x[i]
		if ax == 0 {
			continue
		}
		row := m.Data[i*n : (i+1)*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			row[j] += ax * y[j]
			row[j+1] += ax * y[j+1]
			row[j+2] += ax * y[j+2]
			row[j+3] += ax * y[j+3]
		}
		for ; j < n; j++ {
			row[j] += ax * y[j]
		}
	}
}

// MatMul computes c = a * b (GEMM). Shapes: a is n×k, b is k×m, c must be
// n×m and is overwritten. c may not alias a or b. The i-k-j loop order
// streams b and c rows; the av == 0 skip makes ReLU-sparse left operands
// (batched hidden-layer gradients) proportionally cheaper.
func MatMul(a, b, c *Mat) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d != %d", a.Cols, b.Rows))
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul out shape %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Cols))
	}
	n, k, m := a.Rows, a.Cols, b.Cols
	if panelShape(c) && k > 0 {
		gemmSkipAVX2(&a.Data[:n*k][0], &b.Data[:k*m][0], &c.Data[:n*m][0], n, k, m)
		return
	}
	matMulGeneric(a, b, c)
}

// HasNaN reports whether the matrix contains NaN or Inf.
func (m *Mat) HasNaN() bool { return Vec(m.Data).HasNaN() }

func (m *Mat) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d, %d) out of %dx%d", i, j, m.Rows, m.Cols))
	}
}

func (m *Mat) checkShape(op string, other *Mat) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

func checkLen(op string, want, got int) {
	if want != got {
		panic(fmt.Sprintf("tensor: %s length mismatch: want %d, got %d", op, want, got))
	}
}
