//go:build !amd64

package tensor

// No assembly kernels off amd64: the portable Go kernels are the only path,
// and the calls below are compiled out behind the constant.
const useAVX2 = false

func gemmNTAVX2(a, b, c *float64, n, k, m int)    {}
func gemmSkipAVX2(a, b, c *float64, n, k, m int)  {}
func gemmTNAccAVX2(a, b, c *float64, n, k, m int) {}
