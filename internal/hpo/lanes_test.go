package hpo

import (
	"math"
	"slices"
	"testing"

	"noisyeval/internal/dp"
	"noisyeval/internal/rng"
)

// TestApproxIntoMatchesApprox holds approxInto with lanes — the AVX2 kernel,
// on a CPU that has it — to approx, bit for bit, at every length from 0 to
// 13 (whole lane groups and tails) and at the kernel's edges: scaled
// distances whose square lands on, just below and just above a table entry
// and the cut at expStep·expCut, a coordinate on a centre, NaN and ±Inf
// coordinates and centres, and a kernel without centres.
func TestApproxIntoMatchesApprox(t *testing.T) {
	g := rng.New(31)
	k := newKDE([]float64{0.1, 0.35, 0.35, 0.6, 0.9}, 0, 1)
	var edges []float64
	for _, tt := range []float64{0, 1, 31.5, 32, 1000, 2047, 2047.999, 2048, 2048.001, 1e6} {
		for _, d := range []float64{math.Sqrt(tt) / k.scale, -math.Sqrt(tt) / k.scale} {
			x := 0.35 + d
			edges = append(edges, x, math.Nextafter(x, 2), math.Nextafter(x, -2))
		}
	}
	edges = append(edges, 0.35, 0, 1, math.NaN(), math.Inf(1), math.Inf(-1))
	check := func(name string, k *kde1d, xs []float64) {
		t.Helper()
		got, want := make([]float64, len(xs)), make([]float64, len(xs))
		k.approxInto(got, xs, useLanes)
		for j, x := range xs {
			want[j] = k.approx(x)
		}
		for j := range xs {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: x = %v: approxInto %v, approx %v", name, xs[j], got[j], want[j])
			}
		}
	}
	for n := 0; n <= 13; n++ {
		xs := make([]float64, n)
		for rep := 0; rep < 200; rep++ {
			for j := range xs {
				xs[j] = g.Float64()
				if rep%2 == 1 {
					xs[j] = edges[g.IntN(len(edges))]
				}
			}
			check("random", &k, xs)
		}
	}
	check("edges", &k, edges)
	odd := newKDE([]float64{math.NaN(), 0.5, math.Inf(1), math.Inf(-1)}, 0, 1)
	check("non-finite centres", &odd, edges)
	empty := newKDE(nil, 0, 1)
	check("no centres", &empty, edges)
}

// TestRungSelectionMatchesBottomK pins runSHA's survivor selection to
// dp.BottomK — indices and order — on ties, ±Inf, signed zeros, NaNs (where
// only BottomK's own sort decides the order) and k in {0, 1, len/3, len},
// reusing one buffer throughout as runSHA does.
func TestRungSelectionMatchesBottomK(t *testing.T) {
	var o rungOrder
	o.idx = make([]int, 0, 128)
	check := func(name string, v []float64) {
		t.Helper()
		for _, k := range []int{0, 1, len(v) / 3, len(v)} {
			if got, want := o.bottomK(v, k), dp.BottomK(v, k); !slices.Equal(got, want) {
				t.Fatalf("%s k=%d: got %v, BottomK %v\nscores %v", name, k, got, want, v)
			}
		}
	}
	inf, nan := math.Inf(1), math.NaN()
	check("ties", []float64{0.3, 0.1, 0.3, 0.1, 0.2, 0.1})
	check("all tied", []float64{0.5, 0.5, 0.5, 0.5})
	check("infinities", []float64{inf, 0.2, -inf, inf, -inf, 0.1})
	check("signed zeros", []float64{0, math.Copysign(0, -1), 0, -1e-300, math.Copysign(0, -1)})
	check("one NaN", []float64{0.4, nan, 0.1, 0.3, 0.2})
	check("NaNs", []float64{nan, 0.2, nan, 0.1, inf, nan, -inf, 0.2})
	check("all NaN", []float64{nan, nan, nan})
	check("one", []float64{0.7})
	g := rng.New(5)
	levels := []float64{0.1, 0.2, 0.25, 0.3, inf, -inf, nan}
	for rep := 0; rep < 2000; rep++ {
		v := make([]float64, 1+g.IntN(100))
		for i := range v {
			v[i] = g.Float64()
			if rep%2 == 1 { // scores from a few levels: ties everywhere
				v[i] = levels[g.IntN(len(levels)-1)]
			}
			if rep%4 == 3 && g.IntN(10) == 0 {
				v[i] = nan
			}
		}
		check("random", v)
	}
}

// BenchmarkApproxInto times the ℓ/g bracket's kernel sums at a proposal's
// shape — 20 pool members against 48 centres — with and without lanes.
func BenchmarkApproxInto(b *testing.B) {
	g := rng.New(1)
	cs := make([]float64, 48)
	for i := range cs {
		cs[i] = g.Float64()
	}
	k := newKDE(cs, 0, 1)
	xs, out := make([]float64, 20), make([]float64, 20)
	for i := range xs {
		xs[i] = g.Float64()
	}
	for _, c := range []struct {
		name  string
		lanes bool
	}{{"go", false}, {"lanes", useLanes}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.approxInto(out, xs, c.lanes)
			}
		})
	}
}
