package rng

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with the same seed diverged at draw %d", i)
		}
	}
}

func TestSplitDeterminismAndIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split("alpha")
	c2 := root.Split("alpha")
	c3 := root.Split("beta")
	same, diff := 0, 0
	for i := 0; i < 64; i++ {
		x, y, z := c1.Float64(), c2.Float64(), c3.Float64()
		if x == y {
			same++
		}
		if x != z {
			diff++
		}
	}
	if same != 64 {
		t.Errorf("same-label splits should be identical streams, matched %d/64", same)
	}
	if diff < 60 {
		t.Errorf("different-label splits should be decorrelated, differed only %d/64", diff)
	}
}

func TestSplitDoesNotConsumeParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Split("child")
	if a.Float64() != b.Float64() {
		t.Fatal("Split consumed randomness from the parent stream")
	}
}

func TestNestedSplitPaths(t *testing.T) {
	root := New(1)
	x := root.Split("a").Split("b")
	y := root.Split("a/b") // different path encoding must not collide trivially
	if x.Path() != "/a/b" {
		t.Errorf("Path = %q, want /a/b", x.Path())
	}
	if x.Float64() == y.Float64() {
		t.Log("warning: nested and flat labels collided on first draw (allowed but unlikely)")
	}
}

func TestUniformBounds(t *testing.T) {
	g := New(3)
	f := func(rawLo, rawSpan float64) bool {
		lo := math.Mod(rawLo, 100)
		span := math.Abs(math.Mod(rawSpan, 100)) + 1e-9
		x := g.Uniform(lo, lo+span)
		return x >= lo && x < lo+span
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogUniformBounds(t *testing.T) {
	g := New(4)
	for i := 0; i < 1000; i++ {
		x := g.LogUniform(1e-6, 1e-1)
		if x < 1e-6 || x >= 1e-1 {
			t.Fatalf("LogUniform out of bounds: %g", x)
		}
	}
}

func TestLogUniformPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive bound")
		}
	}()
	New(1).LogUniform(0, 1)
}

func TestLogUniformIsUniformInLog(t *testing.T) {
	// The fraction of draws below the geometric midpoint should be ~1/2.
	g := New(5)
	lo, hi := 1e-6, 1e-1
	mid := math.Exp((math.Log(lo) + math.Log(hi)) / 2)
	below := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.LogUniform(lo, hi) < mid {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("fraction below geometric midpoint = %.3f, want ~0.5", frac)
	}
}

func TestLaplaceMoments(t *testing.T) {
	g := New(6)
	const n = 200000
	mean, scale := 2.0, 3.0
	sum, sumAbs := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := g.Laplace(mean, scale)
		sum += x
		sumAbs += math.Abs(x - mean)
	}
	if m := sum / n; math.Abs(m-mean) > 0.05 {
		t.Errorf("Laplace sample mean = %.4f, want ~%.1f", m, mean)
	}
	// E|X - mean| = scale for Laplace.
	if mad := sumAbs / n; math.Abs(mad-scale) > 0.05 {
		t.Errorf("Laplace mean abs deviation = %.4f, want ~%.1f", mad, scale)
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	g := New(6)
	if x := g.Laplace(1.5, 0); x != 1.5 {
		t.Errorf("Laplace with zero scale = %g, want exactly the mean", x)
	}
}

func TestLaplaceSymmetry(t *testing.T) {
	g := New(8)
	pos := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Laplace(0, 1) > 0 {
			pos++
		}
	}
	frac := float64(pos) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("P(X>0) = %.4f, want ~0.5", frac)
	}
}

func TestDirichletSimplex(t *testing.T) {
	g := New(10)
	for _, alpha := range []float64{0.05, 0.1, 1, 10} {
		for trial := 0; trial < 50; trial++ {
			p := g.Dirichlet(alpha, 10)
			sum := 0.0
			for _, v := range p {
				if v < 0 {
					t.Fatalf("Dirichlet produced negative component %g", v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("Dirichlet components sum to %g, want 1", sum)
			}
		}
	}
}

func TestDirichletConcentration(t *testing.T) {
	// Small alpha should concentrate mass: max component near 1.
	g := New(11)
	const trials = 200
	sumMaxSmall, sumMaxLarge := 0.0, 0.0
	for i := 0; i < trials; i++ {
		sumMaxSmall += maxOf(g.Dirichlet(0.05, 10))
		sumMaxLarge += maxOf(g.Dirichlet(50, 10))
	}
	if sumMaxSmall/trials < 0.65 {
		t.Errorf("alpha=0.05 mean max component = %.3f, want > 0.65 (highly skewed)", sumMaxSmall/trials)
	}
	if sumMaxLarge/trials > 0.2 {
		t.Errorf("alpha=50 mean max component = %.3f, want < 0.2 (near uniform)", sumMaxLarge/trials)
	}
}

func TestZipfHeadHeavy(t *testing.T) {
	g := New(13)
	z := NewZipf(1.1, 1000)
	counts := make([]int, 1000)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[z.Sample(g)]++
	}
	if counts[0] <= counts[10] {
		t.Errorf("rank 0 count %d should exceed rank 10 count %d", counts[0], counts[10])
	}
	if counts[0] <= counts[500] {
		t.Errorf("rank 0 count %d should exceed rank 500 count %d", counts[0], counts[500])
	}
}

func TestZipfRange(t *testing.T) {
	g := New(14)
	z := NewZipf(1.5, 7)
	for i := 0; i < 1000; i++ {
		s := z.Sample(g)
		if s < 0 || s >= 7 {
			t.Fatalf("Zipf sample %d out of [0,7)", s)
		}
	}
}

func TestCategorical(t *testing.T) {
	g := New(15)
	w := []float64{0, 1, 3}
	counts := make([]int, 3)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[g.Categorical(w)]++
	}
	if counts[0] != 0 {
		t.Errorf("zero-weight category sampled %d times", counts[0])
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if math.Abs(ratio-3) > 0.3 {
		t.Errorf("category ratio = %.2f, want ~3", ratio)
	}
}

func TestCategoricalPanics(t *testing.T) {
	for name, w := range map[string][]float64{
		"zero-sum": {0, 0},
		"negative": {1, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}

func TestSampleWithoutReplacementProperties(t *testing.T) {
	g := New(16)
	f := func(rawN, rawK uint8) bool {
		n := int(rawN%50) + 1
		k := int(rawK) % (n + 1)
		s := g.SampleWithoutReplacement(n, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Each of 5 items should appear in a 2-subset with probability 2/5.
	g := New(17)
	counts := make([]int, 5)
	const n = 50000
	for i := 0; i < n; i++ {
		for _, v := range g.SampleWithoutReplacement(5, 2) {
			counts[v]++
		}
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.4) > 0.02 {
			t.Errorf("item %d inclusion rate = %.3f, want ~0.4", i, frac)
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	New(1).SampleWithoutReplacement(3, 4)
}

func TestWeightedSampleWithoutReplacementProperties(t *testing.T) {
	g := New(18)
	f := func(rawN, rawK uint8) bool {
		n := int(rawN%30) + 1
		k := int(rawK) % (n + 1)
		w := make([]float64, n)
		for i := range w {
			w[i] = 1 + float64(i)
		}
		s := g.WeightedSampleWithoutReplacement(w, k)
		if len(s) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWeightedSampleBias(t *testing.T) {
	// With weights [1, 10], item 1 should be first far more often.
	g := New(19)
	first1 := 0
	const n = 20000
	for i := 0; i < n; i++ {
		s := g.WeightedSampleWithoutReplacement([]float64{1, 10}, 1)
		if s[0] == 1 {
			first1++
		}
	}
	frac := float64(first1) / n
	if math.Abs(frac-10.0/11.0) > 0.02 {
		t.Errorf("heavy item selected %.3f of the time, want ~%.3f", frac, 10.0/11.0)
	}
}

func TestWeightedSampleZeroWeightsLast(t *testing.T) {
	g := New(20)
	// One positive weight among zeros: a 1-sample must always pick it.
	w := []float64{0, 0, 5, 0}
	for i := 0; i < 100; i++ {
		s := g.WeightedSampleWithoutReplacement(w, 1)
		if s[0] != 2 {
			t.Fatalf("picked zero-weight item %d", s[0])
		}
	}
	// A full sample includes everything exactly once.
	s := g.WeightedSampleWithoutReplacement(w, 4)
	sort.Ints(s)
	for i, v := range s {
		if v != i {
			t.Fatalf("full weighted sample = %v, want a permutation of 0..3", s)
		}
	}
}

func TestGammaPositive(t *testing.T) {
	g := New(21)
	for _, shape := range []float64{0.05, 0.5, 1, 2, 10} {
		for i := 0; i < 200; i++ {
			if x := g.Gamma(shape); x < 0 || math.IsNaN(x) {
				t.Fatalf("Gamma(%g) produced %g", shape, x)
			}
		}
	}
}

func TestGammaMean(t *testing.T) {
	g := New(22)
	const n = 100000
	shape := 3.0
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Gamma(shape)
	}
	if m := sum / n; math.Abs(m-shape) > 0.05 {
		t.Errorf("Gamma(3) sample mean = %.3f, want ~3", m)
	}
}

func TestExponentialMean(t *testing.T) {
	g := New(23)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Exponential(2)
	}
	if m := sum / n; math.Abs(m-0.5) > 0.02 {
		t.Errorf("Exp(2) sample mean = %.3f, want ~0.5", m)
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := New(24)
	p := g.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("Perm repeated %d", v)
		}
		seen[v] = true
	}
}

func TestBoolProbability(t *testing.T) {
	g := New(25)
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if g.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Errorf("Bool(0.25) hit rate = %.3f", frac)
	}
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// TestWeightedSampleIntoMatchesAllocating pins stream and output equality of
// a reused WeightedSampler against the allocating one-shot form (what the
// evaluator's biased hot path relies on).
func TestWeightedSampleIntoMatchesAllocating(t *testing.T) {
	weights := []float64{0.1, 3, 0, 1.2, 0.7, 0, 2.2, 5, 0.01, 1}
	n := len(weights)
	var s WeightedSampler
	s.Reset(weights)
	for k := 0; k <= n; k++ {
		a := New(77).Split("ws").WeightedSampleWithoutReplacement(weights, k)
		g := New(77).Split("ws")
		b := s.Sample(g, k)
		if len(a) != len(b) {
			t.Fatalf("k=%d: lengths differ: %d vs %d", k, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("k=%d: index %d differs: %d vs %d", k, i, a[i], b[i])
			}
		}
		// Both forms must leave the stream in the same state.
		ref := New(77).Split("ws")
		ref.WeightedSampleWithoutReplacement(weights, k)
		if ref.Float64() != g.Float64() {
			t.Fatalf("k=%d: stream state diverged after sampling", k)
		}
	}
}

// TestReseedMatchesNew pins Reseed's contract: a reseeded generator is
// indistinguishable from a freshly constructed one, including its Split
// derivations.
func TestReseedMatchesNew(t *testing.T) {
	g := New(1)
	g.Float64() // advance
	_ = g.Split("child")
	sub := New(0)
	g.SplitInto(sub, "x") // leave a split path behind
	sub.Reseed(42)
	fresh := New(42)
	for i := 0; i < 16; i++ {
		if sub.Uint64() != fresh.Uint64() {
			t.Fatalf("draw %d differs after Reseed", i)
		}
	}
	if sub.Split("lbl").Uint64() != fresh.Split("lbl").Uint64() {
		t.Error("Split derivation differs after Reseed (stale path state)")
	}
	if sub.Path() != fresh.Path() {
		t.Errorf("paths differ: %q vs %q", sub.Path(), fresh.Path())
	}
}
