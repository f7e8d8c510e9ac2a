//go:build !amd64

package tensor

// No assembly kernels off amd64: the portable Go kernels are the only path,
// and the calls below are compiled out behind the constants.
const useAVX2, useFMA = false, false

func gemmNTAVX2(a, b, c *float64, n, k, m int)    {}
func gemmSkipAVX2(a, b, c *float64, n, k, m int)  {}
func gemmTNAccAVX2(a, b, c *float64, n, k, m int) {}

func expShiftAVX2(v *float64, nvec int, m float64) int                         { return 0 }
func addAVX2(v, w *float64, nvec int)                                          {}
func axpyAVX2(v, w *float64, nvec int, a float64)                              {}
func scaleAVX2(v *float64, nvec int, a float64)                                {}
func sgdStepAVX2(w, grad, vel *float64, nvec int, lr, momentum, decay float64) {}
func adamStepAVX2(w, grad, m, v *float64, nvec int, c *AdamConsts)             {}
func reluAVX2(out, x *float64, nvec int)                                       {}
func reluBackAVX2(gin, grad, out *float64, nvec int)                           {}
