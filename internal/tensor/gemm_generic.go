// The portable GEMM kernels: plain Go, the only path on non-amd64 or
// pre-AVX2 hardware, and the oracle the AVX2 kernels are tested against bit
// for bit (TestKernelsMatchGeneric). Callers have already checked shapes.
//
// The contract reads x*y + z below as two roundings. On amd64 the compiler
// never fuses them, at any GOAMD64 level (only math.FMA does); on arm64,
// ppc64le, s390x and riscv64 it may, so banks are bit-reproducible per
// architecture — and these kernels are the only path there.
package tensor

func matMulNTGeneric(a, b, c *Mat) {
	k := a.Cols
	// 2×2 register tiling: each pass computes a 2-row × 2-column output
	// tile, so every loaded a-row and b-row element feeds two multiply
	// chains and the four accumulators give the FPU independent work.
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		arow0 := a.Data[i*k : (i+1)*k : (i+1)*k]
		arow1 := a.Data[(i+1)*k : (i+2)*k : (i+2)*k]
		crow0 := c.Data[i*c.Cols : (i+1)*c.Cols]
		crow1 := c.Data[(i+1)*c.Cols : (i+2)*c.Cols]
		o := 0
		for ; o+2 <= b.Rows; o += 2 {
			brow0 := b.Data[o*k : (o+1)*k : (o+1)*k]
			brow1 := b.Data[(o+1)*k : (o+2)*k : (o+2)*k]
			arow1 := arow1[:len(arow0)]
			brow0 = brow0[:len(arow0)]
			brow1 = brow1[:len(arow0)]
			var s00, s01, s10, s11 float64
			for j, a0 := range arow0 {
				a1 := arow1[j]
				b0, b1 := brow0[j], brow1[j]
				s00 += a0 * b0
				s01 += a0 * b1
				s10 += a1 * b0
				s11 += a1 * b1
			}
			crow0[o], crow0[o+1] = s00, s01
			crow1[o], crow1[o+1] = s10, s11
		}
		for ; o < b.Rows; o++ {
			brow := b.Data[o*k : (o+1)*k : (o+1)*k]
			var s0, s1 float64
			for j, bv := range brow {
				s0 += arow0[j] * bv
				s1 += arow1[j] * bv
			}
			crow0[o], crow1[o] = s0, s1
		}
	}
	for ; i < a.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k : (i+1)*k]
		crow := c.Data[i*c.Cols : (i+1)*c.Cols]
		o := 0
		for ; o+2 <= b.Rows; o += 2 {
			brow0 := b.Data[o*k : (o+1)*k : (o+1)*k]
			brow1 := b.Data[(o+1)*k : (o+2)*k : (o+2)*k]
			var s0, s1 float64
			for j, av := range arow {
				s0 += av * brow0[j]
				s1 += av * brow1[j]
			}
			crow[o], crow[o+1] = s0, s1
		}
		for ; o < b.Rows; o++ {
			brow := b.Data[o*k : (o+1)*k : (o+1)*k]
			s := 0.0
			for j, av := range arow {
				s += av * brow[j]
			}
			crow[o] = s
		}
	}
}

func matMulGeneric(a, b, c *Mat) {
	c.Zero()
	n := c.Cols
	// 2-wide blocking over output rows: each b row is loaded once per row
	// pair. Blocking the output dimension leaves every element's reduction
	// order over k unchanged, so results stay bit-identical to the scalar
	// triple loop.
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		arow0 := a.Data[i*a.Cols : (i+1)*a.Cols]
		arow1 := a.Data[(i+1)*a.Cols : (i+2)*a.Cols]
		crow0 := c.Data[i*n : (i+1)*n : (i+1)*n]
		crow1 := c.Data[(i+1)*n : (i+2)*n : (i+2)*n]
		for k, av0 := range arow0 {
			av1 := arow1[k]
			brow := b.Data[k*n : (k+1)*n : (k+1)*n]
			switch {
			case av0 != 0 && av1 != 0:
				for j := range brow {
					crow0[j] += av0 * brow[j]
					crow1[j] += av1 * brow[j]
				}
			case av0 != 0:
				for j := range brow {
					crow0[j] += av0 * brow[j]
				}
			case av1 != 0:
				for j := range brow {
					crow1[j] += av1 * brow[j]
				}
			}
		}
	}
	for ; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		crow := c.Data[i*n : (i+1)*n : (i+1)*n]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n : (k+1)*n]
			for j := range brow {
				crow[j] += av * brow[j]
			}
		}
	}
}

func matMulTNAccGeneric(a, b, c *Mat) {
	k, m := a.Cols, b.Cols
	// Output-stationary with 4-wide batch blocking: each c row is loaded and
	// stored once per four batch rows, and the four products per element form
	// independent multiply chains. Branching on individual zero gradients
	// (ReLU-masked rows are ~half zeros, sign-random) mispredicts too often
	// to pay for the skipped work, so only the all-four-zero case — rare and
	// cheap to test — short-circuits.
	for o := 0; o < k; o++ {
		crow := c.Data[o*m : (o+1)*m : (o+1)*m]
		i := 0
		for ; i+4 <= a.Rows; i += 4 {
			g0 := a.Data[i*k+o]
			g1 := a.Data[(i+1)*k+o]
			g2 := a.Data[(i+2)*k+o]
			g3 := a.Data[(i+3)*k+o]
			if g0 == 0 && g1 == 0 && g2 == 0 && g3 == 0 {
				continue
			}
			brow0 := b.Data[i*m : (i+1)*m : (i+1)*m]
			brow1 := b.Data[(i+1)*m : (i+2)*m : (i+2)*m]
			brow2 := b.Data[(i+2)*m : (i+3)*m : (i+3)*m]
			brow3 := b.Data[(i+3)*m : (i+4)*m : (i+4)*m]
			brow1 = brow1[:len(brow0)]
			brow2 = brow2[:len(brow0)]
			brow3 = brow3[:len(brow0)]
			crow := crow[:len(brow0)]
			for j := range brow0 {
				crow[j] += g0*brow0[j] + g1*brow1[j] + g2*brow2[j] + g3*brow3[j]
			}
		}
		for ; i < a.Rows; i++ {
			g := a.Data[i*k+o]
			if g == 0 {
				continue
			}
			brow := b.Data[i*m : (i+1)*m : (i+1)*m]
			crow := crow[:len(brow)]
			for j := range brow {
				crow[j] += g * brow[j]
			}
		}
	}
}
