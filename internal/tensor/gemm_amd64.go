package tensor

import "noisyeval/internal/cpu"

// useAVX2 selects the assembly kernels in gemm_amd64.s and lanes_amd64.s;
// useFMA (AVX2 and FMA, the condition under which math.Exp runs the fused
// sequence the kernel copies) selects the lane-wise exp. Both come from the
// one CPU probe and there is deliberately no knob: the assembly and the Go
// paths produce the same bits, so nothing observable depends on the choice
// but speed.
var useAVX2, useFMA = cpu.AVX2, cpu.FMA

//go:noescape
func gemmNTAVX2(a, b, c *float64, n, k, m int)

//go:noescape
func gemmSkipAVX2(a, b, c *float64, n, k, m int)

//go:noescape
func gemmTNAccAVX2(a, b, c *float64, n, k, m int)

//go:noescape
func expShiftAVX2(v *float64, nvec int, m float64) int

//go:noescape
func addAVX2(v, w *float64, nvec int)

//go:noescape
func axpyAVX2(v, w *float64, nvec int, a float64)

//go:noescape
func scaleAVX2(v *float64, nvec int, a float64)

//go:noescape
func sgdStepAVX2(w, grad, vel *float64, nvec int, lr, momentum, decay float64)

//go:noescape
func adamStepAVX2(w, grad, m, v *float64, nvec int, c *AdamConsts)

//go:noescape
func reluAVX2(out, x *float64, nvec int)

//go:noescape
func reluBackAVX2(gin, grad, out *float64, nvec int)
