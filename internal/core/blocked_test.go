package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"noisyeval/internal/hpo"
	"noisyeval/internal/rng"
)

// blockedTestNoises covers every evaluation-noise family the paper studies:
// full-pool weighted, client subsampling, systems-heterogeneity bias,
// forced-uniform aggregation, and DP releases.
func blockedTestNoises() map[string]Noise {
	return map[string]Noise{
		"full":    {},
		"sampled": {SampleCount: 5},
		"biased":  {SampleCount: 5, Bias: 1},
		"uniform": {SampleCount: 5, Uniform: true},
		"dp":      {SampleCount: 5, Epsilon: 2},
	}
}

func blockedTestSettings(n Noise) hpo.Settings {
	return n.Settings(hpo.Settings{
		Budget:   hpo.Budget{TotalRounds: 8 * 27, MaxPerConfig: 27, K: 8},
		Eta:      3,
		Brackets: 3,
	})
}

// referenceTrials is the definition RunTrials must reproduce: trial i is one
// plain Tuner.Run on the oracle's WithTrial(i) copy, drawing from the
// g.Splitf("trial-%d", i) stream — no scheduler, no coroutine, no row
// grouping.
func referenceTrials(t Tuner, o *BankOracle, n int, g *rng.RNG) []TrialResult {
	results := make([]TrialResult, n)
	for i := range results {
		h := t.Run(o.WithTrial(i), g.Splitf("trial-%d", i))
		results[i] = TrialResult{Trial: i, History: h, FinalTrue: 1}
		if rec, ok := h.Recommend(); ok {
			results[i].FinalTrue = rec.True
		}
	}
	return results
}

// TestRunTrialsBlockedMatchesSequential is the scheduler's central contract:
// for every registered tuning method and every noise family, the block
// scheduler produces results bit-identical to referenceTrials — same
// histories, same recommendations, same final true errors, observation for
// observation.
func TestRunTrialsBlockedMatchesSequential(t *testing.T) {
	b, _ := tinyBank(t)
	for _, name := range hpo.Methods() {
		m, err := hpo.MethodByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for noiseName, noise := range blockedTestNoises() {
			t.Run(name+"/"+noiseName, func(t *testing.T) {
				o, err := NewBankOracle(b, 0, noise.Scheme(), 77)
				if err != nil {
					t.Fatal(err)
				}
				tn := Tuner{Method: m, Space: hpo.DefaultSpace(), Settings: blockedTestSettings(noise)}

				want := referenceTrials(tn, o, 6, rng.New(5).Split("parity"))
				got := tn.RunTrials(o, 6, rng.New(5).Split("parity"))

				if !reflect.DeepEqual(want, got) {
					for i := range want {
						if !reflect.DeepEqual(want[i], got[i]) {
							t.Fatalf("trial %d diverges: reference %d obs final %v, blocked %d obs final %v",
								i, len(want[i].History.Observations), want[i].FinalTrue,
								len(got[i].History.Observations), got[i].FinalTrue)
						}
					}
					t.Fatal("results diverge")
				}
			})
		}
	}
}

// TestSchedulerBlockedRace drives the block scheduler's row-group fan-out at
// 64 workers (far above this machine's GOMAXPROCS) under the race detector
// and re-checks parity so a data race cannot hide behind a lucky schedule.
func TestSchedulerBlockedRace(t *testing.T) {
	b, _ := tinyBank(t)
	noise := Noise{SampleCount: 5, Bias: 1}
	o, err := NewBankOracle(b, 0, noise.Scheme(), 3)
	if err != nil {
		t.Fatal(err)
	}
	tn := Tuner{Method: hpo.RandomSearch{}, Space: hpo.DefaultSpace(), Settings: blockedTestSettings(noise)}

	prev := blockWorkersOverride
	blockWorkersOverride = 64
	defer func() { blockWorkersOverride = prev }()
	got := tn.RunTrials(o, 32, rng.New(11).Split("race"))
	blockWorkersOverride = prev

	want := referenceTrials(tn, o, 32, rng.New(11).Split("race"))
	if !reflect.DeepEqual(want, got) {
		t.Fatal("64-worker blocked run diverges from the reference")
	}
}

// TestRunTrialsBlockedProgressOrdering pins the progress contract on the
// blocked path: onTrial fires exactly once per trial with completed counting
// 1..n, callbacks are serialized (no overlap observable), and the callback
// sees the same result the returned slice carries.
func TestRunTrialsBlockedProgressOrdering(t *testing.T) {
	b, _ := tinyBank(t)
	o, err := NewBankOracle(b, 0, Noise{SampleCount: 4}.Scheme(), 21)
	if err != nil {
		t.Fatal(err)
	}
	tn := Tuner{Method: hpo.SuccessiveHalving{N: 6, R0: 3}, Space: hpo.DefaultSpace(), Settings: blockedTestSettings(Noise{})}

	const n = 8
	var mu sync.Mutex
	calls := 0
	seen := make(map[int]TrialResult, n)
	results := tn.RunTrialsProgress(o, n, rng.New(9).Split("progress"), func(res TrialResult, completed int) {
		if !mu.TryLock() {
			t.Error("progress callbacks overlap")
			return
		}
		defer mu.Unlock()
		calls++
		if completed != calls {
			t.Errorf("callback %d reported completed=%d", calls, completed)
		}
		if _, dup := seen[res.Trial]; dup {
			t.Errorf("trial %d reported twice", res.Trial)
		}
		seen[res.Trial] = res
	})
	if calls != n {
		t.Fatalf("onTrial fired %d times, want %d", calls, n)
	}
	for _, res := range results {
		if !reflect.DeepEqual(seen[res.Trial], res) {
			t.Fatalf("callback result for trial %d differs from returned result", res.Trial)
		}
	}
}

// TestWithTrialSaltMatchesLegacy pins the interned per-trial salt byte-equal
// to the historical fmt.Sprintf derivation: the salt feeds the FNV evaluation
// seed, so a single changed byte resamples every recorded cohort.
func TestWithTrialSaltMatchesLegacy(t *testing.T) {
	b, _ := tinyBank(t)
	o, err := NewBankOracle(b, 0, Noise{SampleCount: 3}.Scheme(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, trial := range []int{0, 1, 9, 63, 64, 100, 4097} {
		want := fmt.Sprintf("trial-%d", trial)
		if got := o.WithTrial(trial).trialSalt; got != want {
			t.Fatalf("WithTrial(%d) salt = %q, want %q", trial, got, want)
		}
	}
}
