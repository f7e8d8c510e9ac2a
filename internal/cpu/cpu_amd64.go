package cpu

// AVX2 reports AVX2 with the OS saving the YMM state; FMA reports that and
// FMA3 besides — what package math requires before its Exp takes the fused
// path tensor's lane-wise exp reproduces.
var AVX2, FMA = probe()

func probe() (avx2, fma bool)
