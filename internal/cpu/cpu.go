// Package cpu probes, once, the instruction-set extensions the assembly
// kernels of other packages need. It imports nothing of this module, so any
// package can depend on it; the kernels' callers read AVX2 and FMA and fall
// back to their portable Go loops when a feature is missing. There is
// deliberately no knob: every kernel produces what its Go loop does (bit for
// bit, or within a stated bound), so nothing observable depends on the probe
// but speed.
package cpu
