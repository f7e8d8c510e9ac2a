package hpo_test

import (
	"math"
	"sync"
	"testing"

	"noisyeval/internal/core"
	"noisyeval/internal/hpo"
	"noisyeval/internal/rng"
)

// proposeBank is a synthetic bank (no training) shaped like the benchmark
// bank: 48 pool configs, the paper's five checkpoints, 40 validation clients.
func proposeBank() *core.Bank {
	const parts, configs, ckpts, clients = 2, 48, 5, 40
	g := rng.New(42)
	b := &core.Bank{
		SpecName:   "propose-test",
		Seed:       42,
		Configs:    hpo.DefaultSpace().SampleN(configs, g.Split("pool")),
		Rounds:     []int{5, 15, 45, 135, 405},
		Partitions: []float64{0, 1},
		Errs:       core.NewErrMatrix(parts, configs, ckpts, clients),
		Diverged:   make([]bool, configs),
	}
	counts := make([]int, clients)
	for k := range counts {
		counts[k] = 15 + g.IntN(20)
	}
	b.ExampleCounts = [][]int{counts, counts}
	// Row order is the canonical order, so the draws land where they did
	// when this loop filled one flat arena.
	for pi := 0; pi < parts; pi++ {
		for ci := 0; ci < configs; ci++ {
			for ri := 0; ri < ckpts; ri++ {
				row := b.Errs.Row(pi, ci, ri)
				for k := range row {
					row[k] = uint32(g.IntN(counts[k] + 1))
				}
			}
		}
	}
	return b
}

// proposeNoises are the five evaluation-noise families of the paper, as in
// core's blocked==sequential pin.
var proposeNoises = map[string]core.Noise{
	"full":    {},
	"sampled": {SampleCount: 5},
	"biased":  {SampleCount: 5, Bias: 1},
	"uniform": {SampleCount: 5, Uniform: true},
	"dp":      {SampleCount: 5, Epsilon: 2},
}

// proposePairs pairs each engine-backed method with its refit-per-proposal
// reference (reference_test.go).
var proposePairs = []struct {
	name        string
	engine, ref hpo.Method
}{
	{"tpe", hpo.TPE{}, hpo.ReferenceTPE{}},
	{"bohb", hpo.BOHB{}, hpo.ReferenceBOHB{}},
}

// sameHistory compares two histories observation for observation, on the
// bits of every float.
func sameHistory(t *testing.T, got, want *hpo.History) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("engine made %d observations, reference %d", got.Len(), want.Len())
	}
	for i, w := range want.All() {
		g := got.At(i)
		if g.Config != w.Config || g.Rounds != w.Rounds || g.CumRounds != w.CumRounds ||
			math.Float64bits(g.Observed) != math.Float64bits(w.Observed) ||
			math.Float64bits(g.True) != math.Float64bits(w.True) {
			t.Fatalf("observation %d diverges:\nengine    %+v\nreference %+v", i, g, w)
		}
	}
}

// TestProposeMatchesReference pins the Parzen engine (fit once per
// observation set, ℓ−g memoised per pool index) to the refit-per-proposal
// implementation it replaced: same configs, same observed bits, same budget
// accounting, for TPE and BOHB under every noise family.
func TestProposeMatchesReference(t *testing.T) {
	bank := proposeBank()
	space := hpo.DefaultSpace()
	for noiseName, noise := range proposeNoises {
		oracle, err := core.NewBankOracle(bank, 0, noise.Scheme(), 77)
		if err != nil {
			t.Fatal(err)
		}
		settings := noise.Settings(hpo.DefaultSettings())
		for _, pair := range proposePairs {
			t.Run("bank/"+pair.name+"/"+noiseName, func(t *testing.T) {
				for trial := 0; trial < 4; trial++ {
					got := pair.engine.Run(oracle.WithTrial(trial), space, settings, rng.New(5).Splitf("trial-%d", trial))
					want := pair.ref.Run(oracle.WithTrial(trial), space, settings, rng.New(5).Splitf("trial-%d", trial))
					sameHistory(t, got, want)
				}
			})
		}
	}
}

// TestProposeMatchesReferenceConcurrent runs 64 trials at once against one
// shared oracle (run it under -race: make race does): each Run owns its
// engine, so concurrent trials share nothing but the bank, and every trial
// still matches the reference.
func TestProposeMatchesReferenceConcurrent(t *testing.T) {
	const trials = 64
	bank := proposeBank()
	space := hpo.DefaultSpace()
	noise := proposeNoises["biased"]
	oracle, err := core.NewBankOracle(bank, 0, noise.Scheme(), 3)
	if err != nil {
		t.Fatal(err)
	}
	settings := noise.Settings(hpo.DefaultSettings())
	root := rng.New(11)
	for _, pair := range proposePairs {
		got := make([]*hpo.History, trials)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int, g *rng.RNG) {
				defer wg.Done()
				got[i] = pair.engine.Run(oracle.WithTrial(i), space, settings, g)
			}(i, root.Splitf("trial-%d", i))
		}
		wg.Wait()
		for i := range got {
			want := pair.ref.Run(oracle.WithTrial(i), space, settings, root.Splitf("trial-%d", i))
			sameHistory(t, got[i], want)
		}
	}
}
