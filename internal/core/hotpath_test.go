package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"noisyeval/internal/eval"
	"noisyeval/internal/hpo"
	"noisyeval/internal/rng"
)

// TestEvalSeedMatchesLegacyDerivation pins the oracle's inlined FNV-1a
// evaluation-stream derivation to the historical fmt.Fprintf construction:
// same bytes in, same seed out, or every recorded experiment resamples
// different cohorts.
func TestEvalSeedMatchesLegacyDerivation(t *testing.T) {
	b, _ := tinyBank(t)
	o, err := NewBankOracle(b, 0, eval.Scheme{Count: 3, Weighted: true}, 12345)
	if err != nil {
		t.Fatal(err)
	}
	for _, trial := range []int{0, 7, 341} {
		ot := o.WithTrial(trial)
		for _, evalID := range []string{"", "x", "round-17", "rung-2|cfg-55"} {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d|%s|%s", ot.seed, ot.trialSalt, evalID)
			if got, want := ot.evalSeed(evalID), h.Sum64(); got != want {
				t.Errorf("evalSeed(trial=%d, %q) = %d, want legacy %d", trial, evalID, got, want)
			}
		}
	}
}

// TestOracleEntryPointsMatchReference pins every entry point of the oracle —
// the base oracle and a WithTrial copy — to the allocating reference across
// the noise families: an observation is eval.Evaluate of the row's rates on
// rng.New(evalSeed(id)), a true error is FullError under a noiseless scheme
// with the same weighting. The oracle runs the row kernel instead, so this
// is what lets it do so without perturbing a recorded experiment.
func TestOracleEntryPointsMatchReference(t *testing.T) {
	b, _ := tinyBank(t)
	schemes := map[string]eval.Scheme{
		"full":     eval.Noiseless(),
		"uniform":  {Count: 3, Weighted: true},
		"one":      {Count: 1, Weighted: true},
		"biased":   {Count: 4, Weighted: true, Bias: 2},
		"unweight": {Count: 5},
	}
	for name, scheme := range schemes {
		t.Run(name, func(t *testing.T) {
			base, err := NewBankOracle(b, 0, scheme, 9)
			if err != nil {
				t.Fatal(err)
			}
			cnt := b.ExampleCounts[base.pi]
			ref := eval.MustNew(cnt, scheme)
			fullScheme := eval.Noiseless()
			fullScheme.Weighted = scheme.Weighted
			full := eval.MustNew(cnt, fullScheme)
			for _, o := range []*BankOracle{base, base.WithTrial(2)} {
				for ci, cfg := range b.Configs[:4] {
					for _, r := range []int{3, 27} {
						id := fmt.Sprintf("e-%d-%d", ci, r)
						rates, err := b.ClientErrors(0, ci, r)
						if err != nil {
							t.Fatal(err)
						}
						wantObs := ref.Evaluate(rates, rng.New(o.evalSeed(id))).Observed
						wantTrue := full.FullError(rates)
						where := fmt.Sprintf("trial salt %q, cfg %d, rounds %d", o.trialSalt, ci, r)
						if got := o.Evaluate(cfg, r, id); got != wantObs {
							t.Fatalf("Evaluate = %v, reference %v (%s)", got, wantObs, where)
						}
						if got := o.TrueError(cfg, r); got != wantTrue {
							t.Fatalf("TrueError = %v, reference %v (%s)", got, wantTrue, where)
						}
						if got := o.TrueErrorAt(ci, r); got != wantTrue {
							t.Fatalf("TrueErrorAt = %v, reference %v (%s)", got, wantTrue, where)
						}
						ev, err := o.EvaluateIndex(ci, r, id)
						if err != nil {
							t.Fatal(err)
						}
						if ev.Observed != wantObs || ev.True != wantTrue {
							t.Fatalf("EvaluateIndex = (%v, %v), reference (%v, %v) (%s)", ev.Observed, ev.True, wantObs, wantTrue, where)
						}
						batch := hpo.EvalBatch{Indices: []int{ci, ci}, SameRounds: r, SameEvalID: id,
							Out: make([]float64, 2), True: make([]float64, 2)}
						o.EvaluateBatch(&batch)
						for j := range batch.Out {
							if batch.Out[j] != wantObs || batch.True[j] != wantTrue {
								t.Fatalf("EvaluateBatch[%d] = (%v, %v), reference (%v, %v) (%s)",
									j, batch.Out[j], batch.True[j], wantObs, wantTrue, where)
							}
						}
					}
				}
			}
		})
	}
}

// TestOracleTrialEvaluateAllocationFree pins the oracle's hot path: a warm
// visit performs zero allocations, on the base oracle and a WithTrial copy
// alike, through every single-ask entry point.
func TestOracleTrialEvaluateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of what is put back")
	}
	b, _ := tinyBank(t)
	for name, scheme := range map[string]eval.Scheme{
		"uniform": {Count: 3, Weighted: true},
		"biased":  {Count: 3, Weighted: true, Bias: 1.5},
		"full":    eval.Noiseless(),
	} {
		t.Run(name, func(t *testing.T) {
			base, err := NewBankOracle(b, 0, scheme, 4)
			if err != nil {
				t.Fatal(err)
			}
			cfg := b.Configs[2]
			batch := hpo.EvalBatch{Indices: []int{2, 5}, SameRounds: 27, SameEvalID: "warm",
				Out: make([]float64, 2), True: make([]float64, 2)}
			for _, o := range []*BankOracle{base, base.WithTrial(1)} {
				for entry, ask := range map[string]func(){
					"Evaluate":      func() { o.Evaluate(cfg, 27, "warm") },
					"EvaluateIndex": func() { o.EvaluateIndex(2, 27, "warm") },
					"EvaluateBatch": func() { o.EvaluateBatch(&batch) },
				} {
					ask() // warm the pooled visit
					if allocs := testing.AllocsPerRun(100, ask); allocs != 0 {
						t.Errorf("warm %s (trial salt %q) allocates %.1f objects/op, want 0", entry, o.trialSalt, allocs)
					}
				}
			}
		})
	}
}

// TestRunTrialsUnchangedByScratchReuse re-pins trial-level determinism from
// the tuner's perspective: pooled visits and the scheduler's reused buffers
// must not leak state between evaluations or trials (results depend only on
// seeds).
func TestRunTrialsUnchangedByScratchReuse(t *testing.T) {
	b, _ := tinyBank(t)
	o, err := NewBankOracle(b, 0, eval.Scheme{Count: 2, Weighted: true, Bias: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tn := Tuner{
		Method:   hpo.SuccessiveHalving{N: 6, R0: 3},
		Space:    hpo.DefaultSpace(),
		Settings: hpo.Settings{Budget: hpo.Budget{TotalRounds: 6 * 27, MaxPerConfig: 27, K: 6}}.Normalize(),
	}
	a := FinalErrors(tn.RunTrials(o, 10, rng.New(3).Split("scratch")))
	c := FinalErrors(tn.RunTrials(o, 10, rng.New(3).Split("scratch")))
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("trial %d differs across identical RunTrials: %v vs %v", i, a[i], c[i])
		}
	}
}
