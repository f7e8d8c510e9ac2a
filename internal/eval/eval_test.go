package eval

import (
	"math"
	"testing"

	"noisyeval/internal/dp"
	"noisyeval/internal/rng"
)

func counts(n, per int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = per
	}
	return out
}

func TestNoiselessScheme(t *testing.T) {
	s := Noiseless()
	n, err := s.Normalize(10)
	if err != nil {
		t.Fatal(err)
	}
	if n.Count != 10 || !n.Weighted || n.DP.Private() {
		t.Errorf("normalized = %+v", n)
	}
	if !s.IsFull(10) {
		t.Error("noiseless scheme should be full")
	}
}

func TestNormalizeFraction(t *testing.T) {
	s := Scheme{Fraction: 0.01}
	n, err := s.Normalize(360)
	if err != nil {
		t.Fatal(err)
	}
	if n.Count != 4 { // ceil(3.6)
		t.Errorf("count = %d, want 4", n.Count)
	}
	// A tiny fraction still samples at least one client.
	n2, _ := Scheme{Fraction: 1e-9}.Normalize(100)
	if n2.Count != 1 {
		t.Errorf("count = %d, want 1", n2.Count)
	}
}

func TestNormalizeCountWins(t *testing.T) {
	n, err := Scheme{Count: 3, Fraction: 0.9}.Normalize(100)
	if err != nil {
		t.Fatal(err)
	}
	if n.Count != 3 {
		t.Errorf("count = %d, want 3", n.Count)
	}
}

func TestNormalizeErrors(t *testing.T) {
	for name, s := range map[string]Scheme{
		"neg bias":      {Bias: -1},
		"count too big": {Count: 11},
		"bad fraction":  {Fraction: 2},
	} {
		if _, err := s.Normalize(10); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := (Scheme{}).Normalize(0); err == nil {
		t.Error("empty pool: expected error")
	}
}

func TestDPForcesUniformWeights(t *testing.T) {
	s := Scheme{Weighted: true, DP: dp.Params{Epsilon: 1, TotalEvals: 4}}
	n, err := s.Normalize(10)
	if err != nil {
		t.Fatal(err)
	}
	if n.Weighted {
		t.Error("DP evaluation must use uniform weights (paper footnote 1)")
	}
}

func TestFullEvaluationExact(t *testing.T) {
	e := MustNew(counts(4, 10), Noiseless())
	errs := []float64{0.1, 0.2, 0.3, 0.4}
	r := e.Evaluate(errs, rng.New(1))
	if math.Abs(r.Observed-0.25) > 1e-12 || r.Observed != r.Sampled {
		t.Errorf("full eval = %+v", r)
	}
	if len(r.Subset) != 4 {
		t.Errorf("subset = %v", r.Subset)
	}
}

func TestWeightedAggregation(t *testing.T) {
	e := MustNew([]int{10, 30}, Noiseless())
	errs := []float64{0.0, 1.0}
	r := e.Evaluate(errs, rng.New(1))
	if math.Abs(r.Observed-0.75) > 1e-12 {
		t.Errorf("weighted = %v, want 0.75", r.Observed)
	}
	if got := e.FullError(errs); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("FullError = %v", got)
	}
}

func TestSubsamplingVariance(t *testing.T) {
	// 1-client subsamples must vary across calls; full evals must not.
	e1 := MustNew(counts(50, 10), Scheme{Count: 1, Weighted: true})
	full := MustNew(counts(50, 10), Noiseless())
	errs := make([]float64, 50)
	for i := range errs {
		errs[i] = float64(i) / 50
	}
	g := rng.New(2)
	seen := map[float64]bool{}
	for i := 0; i < 30; i++ {
		seen[e1.Evaluate(errs, g.Splitf("call-%d", i)).Observed] = true
	}
	if len(seen) < 10 {
		t.Errorf("1-client eval produced only %d distinct values", len(seen))
	}
	a := full.Evaluate(errs, g.Split("f1")).Observed
	b := full.Evaluate(errs, g.Split("f2")).Observed
	if a != b {
		t.Error("full evaluation must be deterministic")
	}
}

func TestSubsampleUnbiased(t *testing.T) {
	// Mean of many uniform subsample evals approximates the full error
	// (uniform weights).
	e := MustNew(counts(20, 1), Scheme{Count: 5})
	errs := make([]float64, 20)
	for i := range errs {
		errs[i] = float64(i%4) / 4
	}
	g := rng.New(3)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += e.Evaluate(errs, g.Splitf("c%d", i)).Observed
	}
	fullErr := e.FullError(errs)
	if math.Abs(sum/n-fullErr) > 0.01 {
		t.Errorf("subsample mean %.4f vs full %.4f", sum/n, fullErr)
	}
}

func TestBiasedSamplingPrefersAccurateClients(t *testing.T) {
	// With b=3, clients with low error must be selected far more often.
	e := MustNew(counts(10, 1), Scheme{Count: 1, Bias: 3})
	errs := []float64{0.05, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9}
	g := rng.New(4)
	hits := 0
	const n = 5000
	for i := 0; i < n; i++ {
		r := e.Evaluate(errs, g.Splitf("c%d", i))
		if r.Subset[0] == 0 {
			hits++
		}
	}
	// Weight ratio ≈ (0.95/0.1)^3 ≈ 857; selection should be near-always 0.
	if float64(hits)/n < 0.9 {
		t.Errorf("accurate client selected only %d/%d times under b=3", hits, n)
	}
}

func TestBiasMakesEvaluationOptimistic(t *testing.T) {
	// Biased evaluation should underestimate error on heterogeneous vectors.
	errs := []float64{0.0, 0.1, 0.8, 0.9, 0.95, 0.9, 0.85, 0.8, 0.9, 0.99}
	unbiased := MustNew(counts(10, 1), Scheme{Count: 3})
	biased := MustNew(counts(10, 1), Scheme{Count: 3, Bias: 3})
	g := rng.New(5)
	var sumU, sumB float64
	const n = 3000
	for i := 0; i < n; i++ {
		sumU += unbiased.Evaluate(errs, g.Splitf("u%d", i)).Observed
		sumB += biased.Evaluate(errs, g.Splitf("b%d", i)).Observed
	}
	if sumB >= sumU {
		t.Errorf("biased mean %.3f should be optimistic vs uniform %.3f", sumB/n, sumU/n)
	}
}

func TestBiasWithFullCountStillBiases(t *testing.T) {
	// Bias > 0 with Count == n still reorders via weighted sampling; the
	// aggregate over all clients is unchanged, but the path exercises the
	// weighted sampler for k == n.
	e := MustNew(counts(5, 1), Scheme{Count: 5, Bias: 2})
	errs := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	r := e.Evaluate(errs, rng.New(6))
	if math.Abs(r.Observed-0.3) > 1e-12 {
		t.Errorf("full biased eval = %v, want mean 0.3", r.Observed)
	}
}

func TestDPNoiseApplied(t *testing.T) {
	s := Scheme{Count: 5, DP: dp.Params{Epsilon: 1, TotalEvals: 16}}
	e := MustNew(counts(10, 1), s)
	errs := make([]float64, 10)
	for i := range errs {
		errs[i] = 0.5
	}
	g := rng.New(7)
	// Sampled is exactly 0.5 every time; Observed must differ and vary.
	distinct := map[float64]bool{}
	for i := 0; i < 20; i++ {
		r := e.Evaluate(errs, g.Splitf("c%d", i))
		if r.Sampled != 0.5 {
			t.Fatalf("sampled = %v", r.Sampled)
		}
		distinct[r.Observed] = true
	}
	if len(distinct) < 15 {
		t.Errorf("DP observed values not varying: %d distinct", len(distinct))
	}
}

func TestDPNoiseScaleShrinksWithClients(t *testing.T) {
	// Empirical spread of observed errors at |S|=50 should be far smaller
	// than at |S|=2 under the same epsilon (Observation 5 mechanism).
	errs := make([]float64, 100)
	for i := range errs {
		errs[i] = 0.5
	}
	spread := func(count int) float64 {
		s := Scheme{Count: count, DP: dp.Params{Epsilon: 10, TotalEvals: 16}}
		e := MustNew(counts(100, 1), s)
		g := rng.New(8)
		sum := 0.0
		const n = 4000
		for i := 0; i < n; i++ {
			sum += math.Abs(e.Evaluate(errs, g.Splitf("c%d", i)).Observed - 0.5)
		}
		return sum / n
	}
	if spread(50) >= spread(2) {
		t.Error("more sampled clients should mean less DP noise")
	}
}

func TestEvaluateLengthMismatchPanics(t *testing.T) {
	e := MustNew(counts(3, 1), Noiseless())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Evaluate([]float64{0.1}, rng.New(1))
}

func TestNewRejectsZeroWeightClient(t *testing.T) {
	if _, err := New([]int{5, 0}, Scheme{Weighted: true}); err == nil {
		t.Error("expected error for zero-example client under weighted aggregation")
	}
	// Uniform weighting accepts empty clients.
	if _, err := New([]int{5, 0}, Scheme{}); err != nil {
		t.Errorf("uniform weighting should accept: %v", err)
	}
}

func TestSampleSizeAccessors(t *testing.T) {
	e := MustNew(counts(100, 1), Scheme{Fraction: 0.27, Weighted: true})
	if e.SampleSize() != 27 {
		t.Errorf("SampleSize = %d", e.SampleSize())
	}
	if e.NumClients() != 100 {
		t.Errorf("NumClients = %d", e.NumClients())
	}
	if (Scheme{Count: 9}).SampleSize(100) != 9 {
		t.Error("Scheme.SampleSize")
	}
}

func TestTailError(t *testing.T) {
	errs := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	if got := TailError(errs, 1); got != 0.5 {
		t.Errorf("max tail = %v", got)
	}
	if got := TailError(errs, 0); got != 0.1 {
		t.Errorf("min tail = %v", got)
	}
	if got := TailError(errs, 0.5); got != 0.3 {
		t.Errorf("median tail = %v", got)
	}
	if got := WorstClientError(errs); got != 0.5 {
		t.Errorf("worst = %v", got)
	}
	// Input must not be mutated.
	if errs[0] != 0.1 || errs[4] != 0.5 {
		t.Error("TailError mutated input")
	}
}

func TestTailErrorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty": func() { TailError(nil, 0.5) },
		"q>1":   func() { TailError([]float64{1}, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTailExceedsMeanOnSkewedVectors(t *testing.T) {
	// The §6 motivation: a config can look fine on average while its tail
	// clients are catastrophically bad.
	errs := []float64{0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.9, 0.95}
	e := MustNew(counts(10, 1), Noiseless())
	mean := e.FullError(errs)
	tail := TailError(errs, 0.9)
	if tail <= mean*2 {
		t.Errorf("tail %.2f should dwarf mean %.2f on skewed vectors", tail, mean)
	}
}

// TestEvaluateScratchMatchesEvaluate pins the single-ask form of the row
// kernel — one seed through a reused MultiScratch, as the bank oracle runs
// every single ask — to the allocating path: identical RNG consumption and
// identical releases across every scheme family, so no recorded experiment
// moves.
func TestEvaluateScratchMatchesEvaluate(t *testing.T) {
	g := rng.New(5)
	errs := make([]float64, 40)
	for i := range errs {
		errs[i] = g.Float64()
	}
	schemes := map[string]Scheme{
		"full":      Noiseless(),
		"subsample": {Count: 7, Weighted: true},
		"biased":    {Count: 5, Weighted: true, Bias: 2.5},
		"dp":        {Count: 6, DP: dp.Params{Epsilon: 1, TotalEvals: 4}},
	}
	for name, scheme := range schemes {
		t.Run(name, func(t *testing.T) {
			e := MustNew(counts(40, 3), scheme)
			var s MultiScratch
			for i := 0; i < 10; i++ {
				seed := uint64(100 + i)
				a := e.Evaluate(errs, rng.New(seed))
				b := e.EvaluateMulti(errs, prepared(e, errs), []uint64{seed}, &s)
				if len(b) != 1 {
					t.Fatalf("iteration %d: one seed gave %d results", i, len(b))
				}
				if a.Observed != b[0].Observed || a.Sampled != b[0].Sampled {
					t.Fatalf("iteration %d: scratch (%v, %v) != allocating (%v, %v)",
						i, b[0].Observed, b[0].Sampled, a.Observed, a.Sampled)
				}
				if b[0].Subset != nil {
					t.Fatalf("iteration %d: kernel result retains a subset", i)
				}
			}
		})
	}
}

// TestEvaluateScratchAllocationFree pins the warm-scratch allocation profile
// of a single ask — one seed through the row kernel — for the non-DP schemes
// the oracle hot path drives.
func TestEvaluateScratchAllocationFree(t *testing.T) {
	errs := make([]float64, 30)
	for i := range errs {
		errs[i] = float64(i) / 40
	}
	for name, scheme := range map[string]Scheme{
		"full":      Noiseless(),
		"subsample": {Count: 5, Weighted: true},
		"biased":    {Count: 5, Weighted: true, Bias: 1.5},
	} {
		t.Run(name, func(t *testing.T) {
			e := MustNew(counts(30, 2), scheme)
			bias := prepared(e, errs)
			var s MultiScratch
			seed := []uint64{3}
			e.EvaluateMulti(errs, bias, seed, &s) // warm buffers
			allocs := testing.AllocsPerRun(100, func() {
				seed[0]++
				e.EvaluateMulti(errs, bias, seed, &s)
			})
			if allocs != 0 {
				t.Errorf("warm one-seed EvaluateMulti allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}
