package eval

import (
	"testing"

	"noisyeval/internal/dp"
	"noisyeval/internal/rng"
)

// multiSchemes spans every kernel path: full pool, uniform subsample, biased
// subsample, DP over each, weighted and unweighted aggregation.
func multiSchemes() map[string]Scheme {
	return map[string]Scheme{
		"full":          {Weighted: true},
		"full-unw":      {},
		"uniform":       {Count: 10, Weighted: true},
		"uniform-unw":   {Count: 10},
		"fraction":      {Fraction: 0.25, Weighted: true},
		"biased":        {Count: 10, Bias: 2, Weighted: true},
		"biased-full-k": {Count: 0, Bias: 0.5},
		"dp-uniform":    {Count: 10, DP: dp.Params{Epsilon: 1, TotalEvals: 50}},
		"dp-biased":     {Count: 10, Bias: 1, DP: dp.Params{Epsilon: 1, TotalEvals: 50}},
		"dp-full":       {DP: dp.Params{Epsilon: 1, TotalEvals: 50}},
	}
}

func multiRow(n int, g *rng.RNG) []float64 {
	errs := make([]float64, n)
	for i := range errs {
		errs[i] = g.Float64()
	}
	return errs
}

// prepared is the bank oracle's form of a biased row's weights: each
// BiasWeight with what rng.PrepareWeight derives from it (zero when the
// scheme is unbiased).
func prepared(e *Evaluator, errs []float64) rng.Prepared {
	if e.Scheme().Bias == 0 {
		return rng.Prepared{}
	}
	p := rng.Prepared{W: make([]float64, len(errs)), Inv: make([]float64, len(errs)), Margin: make([]float64, len(errs))}
	for k, err := range errs {
		p.W[k] = e.BiasWeight(err)
		p.Inv[k], p.Margin[k] = rng.PrepareWeight(p.W[k])
	}
	return p
}

// TestEvaluateMultiMatchesEvaluate pins the tentpole parity claim at the
// kernel level: EvaluateMulti over a seed batch, a biased row's weights
// prepared as the bank oracle passes them, is bit-identical to one Evaluate
// per seed on a freshly seeded stream, for every sampling scheme.
func TestEvaluateMultiMatchesEvaluate(t *testing.T) {
	const n = 40
	cnt := counts(n, 7)
	for name, scheme := range multiSchemes() {
		t.Run(name, func(t *testing.T) {
			e, err := New(cnt, scheme)
			if err != nil {
				t.Fatal(err)
			}
			errs := multiRow(n, rng.New(7).Split("row"))
			seeds := make([]uint64, 33)
			for i := range seeds {
				seeds[i] = uint64(1000 + i*i*7919)
			}
			var ms MultiScratch
			got := e.EvaluateMulti(errs, prepared(e, errs), seeds, &ms)
			if len(got) != len(seeds) {
				t.Fatalf("got %d results, want %d", len(got), len(seeds))
			}
			for c, seed := range seeds {
				want := e.Evaluate(errs, rng.New(seed))
				if got[c].Observed != want.Observed || got[c].Sampled != want.Sampled {
					t.Fatalf("cohort %d (seed %d): got (%v, %v), want (%v, %v)",
						c, seed, got[c].Observed, got[c].Sampled, want.Observed, want.Sampled)
				}
			}
			// A second sweep through the same scratch must see the restored
			// identity permutation, not the residue of the first.
			again := e.EvaluateMulti(errs, prepared(e, errs), seeds[:5], &ms)
			for c := range again {
				want := e.Evaluate(errs, rng.New(seeds[c]))
				if again[c].Observed != want.Observed {
					t.Fatalf("reused scratch cohort %d: got %v, want %v", c, again[c].Observed, want.Observed)
				}
			}
			// One-seed sweeps through the same scratch — the bank oracle's
			// single-ask form — over rows of two pool sizes in turn
			// (40 → 25 → 40), as a pooled visit meets banks with different
			// client counts.
			for step, m := range []int{n, 25, n} {
				e, err := New(counts(m, 7+step), scheme)
				if err != nil {
					t.Fatal(err)
				}
				errs := multiRow(m, rng.New(uint64(11+step)))
				bias := prepared(e, errs)
				for _, seed := range seeds {
					one := e.EvaluateMulti(errs, bias, []uint64{seed}, &ms)
					want := e.Evaluate(errs, rng.New(seed))
					if len(one) != 1 || one[0].Observed != want.Observed || one[0].Sampled != want.Sampled {
						t.Fatalf("one-seed sweep (%d clients, seed %d): got %v, want (%v, %v)", m, seed, one, want.Observed, want.Sampled)
					}
				}
			}
		})
	}
}

// TestEvaluateMultiNilScratch covers the allocate-per-call form.
func TestEvaluateMultiNilScratch(t *testing.T) {
	e := MustNew(counts(20, 3), Scheme{Count: 5})
	errs := multiRow(20, rng.New(3))
	got := e.EvaluateMulti(errs, prepared(e, errs), []uint64{11, 12}, nil)
	for c, seed := range []uint64{11, 12} {
		want := e.Evaluate(errs, rng.New(seed))
		if got[c].Observed != want.Observed {
			t.Fatalf("cohort %d: got %v, want %v", c, got[c].Observed, want.Observed)
		}
	}
}

// TestEvaluateMultiBiasedNeedsPrepared holds the biased row kernel to its
// one input form: without the row's prepared weights it panics rather than
// computing them itself.
func TestEvaluateMultiBiasedNeedsPrepared(t *testing.T) {
	e := MustNew(counts(20, 3), Scheme{Count: 5, Bias: 1.5})
	errs := multiRow(20, rng.New(3))
	defer func() {
		if recover() == nil {
			t.Fatal("biased EvaluateMulti without prepared weights did not panic")
		}
	}()
	e.EvaluateMulti(errs, rng.Prepared{}, []uint64{1}, nil)
}

// TestEvaluateMultiAllocationFree pins the steady-state allocation contract
// of the row-sweep kernel for the schemes the bank oracle serves.
func TestEvaluateMultiAllocationFree(t *testing.T) {
	const n = 100
	cnt := counts(n, 5)
	seeds := make([]uint64, 64)
	for i := range seeds {
		seeds[i] = uint64(i * 2654435761)
	}
	for name, scheme := range map[string]Scheme{
		"uniform": {Count: 10, Weighted: true},
		"full":    {Weighted: true},
		"biased":  {Count: 10, Bias: 2, Weighted: true},
	} {
		t.Run(name, func(t *testing.T) {
			e := MustNew(cnt, scheme)
			errs := multiRow(n, rng.New(9))
			bias := prepared(e, errs)
			var ms MultiScratch
			e.EvaluateMulti(errs, bias, seeds, &ms) // warm the buffers
			allocs := testing.AllocsPerRun(20, func() {
				e.EvaluateMulti(errs, bias, seeds, &ms)
			})
			if allocs != 0 {
				t.Fatalf("EvaluateMulti allocated %v times per sweep, want 0", allocs)
			}
		})
	}
}
