package tensor

// useAVX2 selects the assembly kernels in gemm_amd64.s. It is probed once
// and there is deliberately no knob: both paths produce the same bits, so
// nothing observable depends on the choice but speed.
var useAVX2 = hasAVX2()

func hasAVX2() bool

//go:noescape
func gemmNTAVX2(a, b, c *float64, n, k, m int)

//go:noescape
func gemmSkipAVX2(a, b, c *float64, n, k, m int)

//go:noescape
func gemmTNAccAVX2(a, b, c *float64, n, k, m int)
