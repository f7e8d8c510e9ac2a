package tensor

import (
	"encoding/binary"
	"math"
	"testing"

	"noisyeval/internal/rng"
)

// guardedVec copies vals to an odd element offset inside a band of
// sentinels (so vector loads and stores are unaligned and an overrun shows)
// and returns the copy plus its backing slice.
func guardedVec(vals []float64) (Vec, []float64) {
	back := make([]float64, len(vals)+2*guard)
	for i := range back {
		back[i] = sentinel(i)
	}
	v := Vec(back[guard : guard+len(vals) : guard+len(vals)])
	copy(v, vals)
	return v, back
}

func checkGuards(t *testing.T, what string, n int, back []float64) {
	t.Helper()
	for i := range back {
		if inside := i >= guard && i < guard+n; !inside && back[i] != sentinel(i) {
			t.Fatalf("%s: guard element %d overwritten with %g", what, i-guard, back[i])
		}
	}
}

func checkVec(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d of %d = %x (%g), Go loop %x (%g)", what, i, len(want),
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// inGate reports whether the exp kernel takes the four arguments: all in
// [−708, 0], no NaN.
func inGate(v []float64, m float64) bool {
	for _, x := range v {
		if d := x - m; !(d >= -708 && d <= 0) {
			return false
		}
	}
	return true
}

// diffExp runs expShift on a guarded copy of row and compares it with the
// math.Exp loop. Then it replays the wrapper's kernel calls on a second copy
// and requires each to finish exactly the vectors inside the gate up to the
// first one that is not — the kernel takes every vector it may and none it
// may not — and returns how many vectors that was, for the share assertion.
func diffExp(t *testing.T, what string, row []float64, m float64) (taken int) {
	t.Helper()
	want := make([]float64, len(row))
	for i, x := range row {
		want[i] = math.Exp(x - m)
	}
	got, back := guardedVec(row)
	expShift(got, m)
	checkVec(t, what, got, want)
	checkGuards(t, what, len(row), back)

	probe, _ := guardedVec(row)
	for i, n := 0, len(row)&^3; i < n; i += 4 { // the += 4 steps over the refused vector
		run := 0
		for j := i; j < n && inGate(row[j:j+4], m); j += 4 {
			run++
		}
		if done := expShiftAVX2(&probe[i], (n-i)/4, m); done != run {
			t.Fatalf("%s: kernel finished %d vectors from element %d, %d are inside [-708, 0] (row %v, m %g)", what, done, i, run, row, m)
		}
		taken += run
		i += 4 * run
	}
	return taken
}

// expAdversaries are arguments at and around every branch of math.Exp and
// every edge of the kernel's gate.
func expAdversaries() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), -708, math.Nextafter(-708, 0), math.Nextafter(-708, math.Inf(-1)),
		-745.14, -745.13321910194111, -746, -709.78, -1e300, 709.78, 710, 1, 5e-324, -5e-324, -1e-310, 1e-310,
		-2.2250738585072014e-308, math.NaN(), math.Float64frombits(0xFFF8000000000001), math.Float64frombits(0x7FF0000000000001),
		math.Inf(1), math.Inf(-1), -1e-17, -0.5, -math.Ln2, -math.Ln2 / 2,
		// Arguments found by search on which the Horner step that adds 1/6
		// rounds differently fused and unfused and the difference survives
		// to the result (random rows pin only the last two steps and the
		// closing x·t+1 reliably; a last-bit difference in an earlier step
		// is scaled by |x| <= 0.022 per later step and all but always
		// rounded away — 6·10⁹ arguments found no witness for the first
		// four).
		math.Float64frombits(0xc0346ec81a5de602), math.Float64frombits(0xc00f131ee5811952), math.Float64frombits(0xc030355b735499da),
	}
	// Products x·log2e one ulp either side of every half-integer in
	// [−1021, 0]: the VCVTPD2DQ round-to-even boundary.
	const log2e = 1.4426950408889634073599246810018920
	for k := -1021; k <= 0; k++ {
		x := (float64(k) - 0.5) / log2e
		for _, y := range []float64{x, math.Nextafter(x, 0), math.Nextafter(x, -1e9), math.Nextafter(math.Nextafter(x, 0), 0), math.Nextafter(math.Nextafter(x, -1e9), -1e9)} {
			if y <= 0 {
				xs = append(xs, y)
			}
		}
	}
	return xs
}

// TestExpLanesMatchMathExp is the contract of the lane-wise exp: expShift
// equals a math.Exp loop bit for bit (NaN ≡ NaN) on random softmax rows of
// every length and scale and on the adversarial arguments, the kernel takes
// every vector inside its gate and none outside it, and nothing around the
// row is written. A toolchain whose math.Exp changes fails here first.
func TestExpLanesMatchMathExp(t *testing.T) {
	if !useFMA {
		t.Skip("no AVX2+FMA on this machine: expShift is the math.Exp loop")
	}
	g := rng.New(20240611)
	rows := 1_000_000
	if testing.Short() {
		rows = 100_000
	}
	taken, vectors := 0, 0
	buf := make([]float64, 70)
	for r := 0; r < rows; r++ {
		row := buf[:1+g.IntN(70)]
		scale := math.Pow(10, g.Uniform(-3, 3))
		for i := range row {
			row[i] = g.Normal(0, scale)
		}
		taken += diffExp(t, "random row", row, Vec(row).Max())
		vectors += len(row) / 4
	}
	t.Logf("%d rows over scales 1e-3..1e3: the kernel finished %d of %d whole vectors (the rest hold an argument below -708)", rows, taken, vectors)

	// Rows at logit scale never leave the gate, so a silent all-scalar
	// fallback (or a gate that refuses too much) cannot pass.
	taken, vectors = 0, 0
	for r := 0; r < rows/10; r++ {
		row := buf[:4+g.IntN(67)]
		for i := range row {
			row[i] = g.Normal(0, 30)
		}
		taken += diffExp(t, "logit row", row, Vec(row).Max())
		vectors += len(row) / 4
	}
	if float64(taken) < 0.99*float64(vectors) {
		t.Errorf("kernel finished %d of %d whole vectors of logit-scale rows, want >= 99%%", taken, vectors)
	}

	// The adversaries, each in every lane of a vector of ordinary
	// arguments, at the front, middle and end of a row, around m = 0 and
	// around a nonzero max.
	adv := expAdversaries()
	for _, m := range []float64{0, 3.25, -1e3} {
		for ai, a := range adv {
			for lane := 0; lane < 4; lane++ {
				for _, at := range []int{0, 4, 8} {
					row := buf[:14]
					for i := range row {
						row[i] = m - g.Uniform(0, 40)
					}
					row[at+lane] = m + a
					row[13] = m + adv[(ai+1)%len(adv)] // the scalar tail too
					diffExp(t, "adversarial row", row, m)
				}
			}
		}
	}
	// Rows whose max is +Inf (arguments NaN and −Inf) or NaN, as
	// SoftmaxInPlace meets them on a diverging model.
	for _, special := range []float64{math.Inf(1), math.NaN(), math.Inf(-1)} {
		for n := 1; n <= 20; n++ {
			for at := 0; at < n; at++ {
				row := buf[:n]
				for i := range row {
					row[i] = g.Normal(0, 5)
				}
				row[at] = special
				diffExp(t, "non-finite row", row, Vec(row).Max())
			}
		}
	}
}

// FuzzExpLanes feeds raw float64 bits through expShift, with the row's max
// as the shift (the softmax's use) and with its first element (so positive
// arguments occur), against the math.Exp loop.
func FuzzExpLanes(f *testing.F) {
	seed := func(xs ...float64) {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		f.Add(b)
	}
	seed(0, -1, -2, -3, -4, -5, -6, -7, -8)
	seed(1, -707, -708, -709, 0.5)
	seed(math.Inf(1), 1, 2, 3, math.NaN(), 5, 6, 7, 8)
	seed(700, -8, -9, -10, -11, 1e-300, -1e-300, 3)
	f.Fuzz(func(t *testing.T, b []byte) {
		if !useFMA {
			t.Skip("no AVX2+FMA on this machine")
		}
		row := make([]float64, min(len(b)/8, 70))
		for i := range row {
			row[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		if len(row) == 0 {
			return
		}
		diffExp(t, "fuzz row (max)", row, Vec(row).Max())
		diffExp(t, "fuzz row (first)", row, row[0])
	})
}

// specialOperand draws n values: normals with, here and there, zeros of
// both signs, ±Inf, NaNs of both signs and subnormals.
func specialOperand(g *rng.RNG, n int) []float64 {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0xFFF8000000000000), 5e-324, -5e-324, 1e-310}
	out := make([]float64, n)
	for i := range out {
		if g.Bool(0.15) {
			out[i] = specials[g.IntN(len(specials))]
		} else {
			out[i] = g.Normal(0, 1)
		}
	}
	return out
}

// TestElementwiseMatchGeneric pins Vec.Add, Axpy and Scale — and through
// them AddRowVec and AccumColSums — to their Go loops bit for bit
// (NaN ≡ NaN) at every length from 0 to 70, on unaligned operands holding
// -0, ±Inf, NaN and subnormals, without touching memory around the output.
// The optimizer and ReLU kernels are pinned the same way beside their Go
// loops, in internal/opt and internal/nn.
func TestElementwiseMatchGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this machine: the Vec methods are the Go loops")
	}
	g := rng.New(20240612)
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 20; trial++ {
			v0, w0 := specialOperand(g, n), specialOperand(g, n)
			w, _ := guardedVec(w0)
			a := specialOperand(g, 1)[0]
			want := make([]float64, n)

			for i := range want {
				want[i] = v0[i] + w0[i]
			}
			v, back := guardedVec(v0)
			v.Add(w)
			checkVec(t, "Add", v, want)
			checkGuards(t, "Add", n, back)

			for i := range want {
				want[i] = v0[i] + a*w0[i]
			}
			v, back = guardedVec(v0)
			v.Axpy(a, w)
			checkVec(t, "Axpy", v, want)
			checkGuards(t, "Axpy", n, back)

			for i := range want {
				want[i] = v0[i] * a
			}
			v, back = guardedVec(v0)
			v.Scale(a)
			checkVec(t, "Scale", v, want)
			checkGuards(t, "Scale", n, back)
		}
	}

	// The two row-wise users: every row gets the vector, every column sum
	// adds its rows in row order.
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {7, 10}, {32, 48}, {32, 62}, {5, 64}, {60, 10}} {
		rows, cols := shape[0], shape[1]
		m := fillOperand(g, rows, cols, 0.1, true)
		bias := Vec(specialOperand(g, cols))
		want := m.Clone()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				want.Data[i*cols+j] += bias[j]
			}
		}
		got := m.Clone()
		got.AddRowVec(bias)
		checkVec(t, "AddRowVec", got.Data, want.Data)

		sums, wantSums := Vec(specialOperand(g, cols)), make([]float64, cols)
		copy(wantSums, sums)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				wantSums[j] += m.Data[i*cols+j]
			}
		}
		m.AccumColSums(sums)
		checkVec(t, "AccumColSums", sums, wantSums)
	}
}

// TestZeroClears covers the clear-based Zero on both types (-0 and NaN in).
func TestZeroClears(t *testing.T) {
	v := Vec{1, math.Copysign(0, -1), math.NaN(), math.Inf(1), -3}
	v.Zero()
	m := FromRows([][]float64{{math.NaN(), -1}, {math.Copysign(0, -1), 2}})
	m.Zero()
	for _, x := range append(v, m.Data...) {
		if math.Float64bits(x) != 0 {
			t.Fatalf("Zero left %x", math.Float64bits(x))
		}
	}
}
