package noisyeval_test

import (
	"math"
	"testing"

	"noisyeval"
)

// TestFacadeEndToEnd exercises the public API the way a downstream user
// would: generate a population, build a bank, tune under noise, inspect the
// result.
func TestFacadeEndToEnd(t *testing.T) {
	spec := noisyeval.CIFAR10Like().Scaled(0.08, 0)
	spec.MeanExamples, spec.MinExamples, spec.MaxExamples = 20, 15, 25
	pop := noisyeval.MustGenerate(spec, noisyeval.NewRNG(1))
	if len(pop.Train) == 0 || len(pop.Val) == 0 {
		t.Fatal("empty population")
	}

	opts := noisyeval.DefaultBuildOptions()
	opts.NumConfigs = 6
	opts.MaxRounds = 9
	bank, err := noisyeval.BuildBank(pop, opts, 2)
	if err != nil {
		t.Fatal(err)
	}

	noise := noisyeval.Noise{SampleCount: 2, Epsilon: 100}
	oracle, err := noisyeval.NewBankOracle(bank, 0, noise.Scheme(), 3)
	if err != nil {
		t.Fatal(err)
	}
	tuner := noisyeval.Tuner{
		Method: noisyeval.RandomSearch{},
		Space:  noisyeval.DefaultSpace(),
		Settings: noise.Settings(noisyeval.Settings{
			Budget: noisyeval.Budget{TotalRounds: 4 * 9, MaxPerConfig: 9, K: 4},
		}),
	}
	results := tuner.RunTrials(oracle, 6, noisyeval.NewRNG(4))
	if len(results) != 6 {
		t.Fatalf("trials = %d", len(results))
	}
	for _, r := range results {
		if r.FinalTrue < 0 || r.FinalTrue > 1 || math.IsNaN(r.FinalTrue) {
			t.Errorf("trial %d final = %v", r.Trial, r.FinalTrue)
		}
	}
}

// TestFacadeTrainer drives the federated trainer through the facade.
func TestFacadeTrainer(t *testing.T) {
	spec := noisyeval.CIFAR10Like().Scaled(0.06, 0)
	spec.MeanExamples, spec.MinExamples, spec.MaxExamples = 15, 10, 20
	pop := noisyeval.MustGenerate(spec, noisyeval.NewRNG(5))
	hp := noisyeval.HParams{ServerLR: 0.02, Beta1: 0.9, Beta2: 0.99, ClientLR: 0.1, BatchSize: 8}
	tr, err := noisyeval.NewTrainer(pop, hp, noisyeval.DefaultTrainerOptions(), noisyeval.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	before := tr.FullValidationError(true)
	tr.TrainTo(20)
	if after := tr.FullValidationError(true); after >= before {
		t.Errorf("error did not improve: %.3f -> %.3f", before, after)
	}
}

// TestFacadeSchemeHelpers sanity-checks the helper constructors.
func TestFacadeSchemeHelpers(t *testing.T) {
	s := noisyeval.SchemeWithCount(7)
	if s.Count != 7 || !s.Weighted {
		t.Errorf("SchemeWithCount = %+v", s)
	}
	if !noisyeval.NoiselessScheme().IsFull(10) {
		t.Error("NoiselessScheme should be full evaluation")
	}
	if noisyeval.NoiselessSetting().Private() {
		t.Error("NoiselessSetting should be non-private")
	}
}

// TestFacadeRungRounds checks the re-exported checkpoint helper matches the
// paper's grid.
func TestFacadeRungRounds(t *testing.T) {
	got := noisyeval.RungRounds(405, 3, 5)
	want := []int{5, 15, 45, 135, 405}
	if len(got) != len(want) {
		t.Fatalf("rungs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rungs = %v", got)
		}
	}
}
