// Lane-wise kernels for the passes that sum nothing across elements
// (DESIGN.md §20). On amd64 with AVX2 the whole 4-element vectors of a slice
// go through the assembly in lanes_amd64.s; the n mod 4 tail, and everything
// on other CPUs, goes through the Go loop next to each call, which is also
// what TestElementwiseMatchGeneric and TestExpLanesMatchMathExp compare the
// assembly with. The optimizer and ReLU loops live in opt and nn, so their
// kernels are exported in the form "do the leading whole vectors, say how
// many elements that was".
package tensor

import "math"

// lanes returns the length of the leading part of an n-element slice the
// AVX2 kernels take: n rounded down to whole vectors, or 0 without AVX2.
func lanes(n int) int {
	if useAVX2 {
		return n &^ 3
	}
	return 0
}

// expShift sets v[i] = exp(v[i] − m). The kernel runs math.Exp's own
// instruction sequence four lanes at a time while every lane's argument is
// in [−708, 0] — every argument of a finite softmax row but the underflowing
// ones — and stops at the first vector that is not; that vector and the tail
// go through math.Exp, which alone defines NaN, ±Inf, underflow and
// denormal results.
func expShift(v Vec, m float64) {
	n := 0
	if useFMA {
		n = len(v) &^ 3
	}
	i := 0
	for i < n {
		i += 4 * expShiftAVX2(&v[i], (n-i)/4, m)
		for refused := min(i+4, n); i < refused; i++ {
			v[i] = math.Exp(v[i] - m)
		}
	}
	for ; i < len(v); i++ {
		v[i] = math.Exp(v[i] - m)
	}
}

// SGDStepLanes applies opt.SGD's update — g = grad + decay·w,
// vel = momentum·vel + g, w −= lr·vel — to the leading whole vectors of
// three equally long slices and returns how many elements that was.
func SGDStepLanes(w, grad, vel Vec, lr, momentum, decay float64) int {
	n := lanes(len(w))
	if n > 0 {
		sgdStepAVX2(&w[0], &grad[:len(w)][0], &vel[:len(w)][0], n/4, lr, momentum, decay)
	}
	return n
}

// AdamConsts are the loop-invariant values of one opt.Adam step, in the
// order adamStepAVX2 loads them. A caller builds one on its stack.
type AdamConsts struct {
	Beta1, OneMinusBeta1 float64
	Beta2, OneMinusBeta2 float64
	Bias1, Bias2         float64 // 1 − β1ᵗ, 1 − β2ᵗ
	LR, Eps              float64
}

// AdamStepLanes applies opt.Adam's update, with its grouping, to the leading
// whole vectors of four equally long slices and returns how many elements
// that was.
func AdamStepLanes(w, grad, m, v Vec, c *AdamConsts) int {
	n := lanes(len(w))
	if n > 0 {
		adamStepAVX2(&w[0], &grad[:len(w)][0], &m[:len(w)][0], &v[:len(w)][0], n/4, c)
	}
	return n
}

// ReLULanes writes max(x, 0) in nn.ReLU's integer form (sign bit set → +0)
// for the leading whole vectors of x into out and returns how many elements
// that was.
func ReLULanes(out, x []float64) int {
	n := lanes(len(x))
	if n > 0 {
		reluAVX2(&out[:len(x)][0], &x[0], n/4)
	}
	return n
}

// ReLUBackLanes writes grad masked by nn.ReLU's retained outputs (+0 → +0,
// anything else passes grad) for the leading whole vectors into gin and
// returns how many elements that was.
func ReLUBackLanes(gin, grad, out []float64) int {
	n := lanes(len(grad))
	if n > 0 {
		reluBackAVX2(&gin[:len(grad)][0], &grad[0], &out[:len(grad)][0], n/4)
	}
	return n
}
