// Quickstart: tune federated hyperparameters on a small CIFAR10-like
// population with random search, following the paper's protocol: train a
// pool of configurations once (a config bank, FedAdam + client SGD), then
// let the tuner evaluate pool members on sampled validation clients.
//
// Run with: go run ./examples/quickstart
// With $NOISYEVAL_CACHE_DIR set, the bank is kept in (and reused from) a
// bank store in that directory.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"noisyeval"
)

func main() {
	// A scaled-down CIFAR10-like federated population: Dirichlet(0.1) label
	// skew across clients, disjoint train/validation client pools.
	spec := noisyeval.CIFAR10Like().Scaled(0.15, 0) // 60 train / 15 eval clients
	pop := noisyeval.MustGenerate(spec, noisyeval.NewRNG(1))
	fmt.Printf("population: %d train clients, %d validation clients\n", len(pop.Train), len(pop.Val))

	// A bank of 16 configurations from the paper's Appendix-B space, each
	// trained for 27 rounds with checkpoints at rungs {1, 3, 9, 27}.
	opts := noisyeval.DefaultBuildOptions()
	opts.NumConfigs = 16
	opts.MaxRounds = 27
	var store *noisyeval.BankStore
	if dir := os.Getenv("NOISYEVAL_CACHE_DIR"); dir != "" {
		var err error
		if store, err = noisyeval.NewBankStore(dir); err != nil {
			log.Fatal(err)
		}
	}
	bank, _, err := noisyeval.BuildBankCached(context.Background(), store, pop, opts, 7)
	if err != nil {
		log.Fatal(err)
	}

	// Evaluations subsample 5 validation clients per call (the noise source
	// the paper studies first).
	oracle, err := noisyeval.NewBankOracle(bank, 0, noisyeval.SchemeWithCount(5), 42)
	if err != nil {
		log.Fatal(err)
	}

	// Random search: K = 6 configurations drawn from the pool, each read at
	// 27 rounds.
	tuner := noisyeval.Tuner{
		Method: noisyeval.RandomSearch{},
		Space:  noisyeval.DefaultSpace(),
		Settings: noisyeval.Settings{
			Budget: noisyeval.Budget{TotalRounds: 6 * 27, MaxPerConfig: 27, K: 6},
		},
	}
	history := tuner.Run(oracle, noisyeval.NewRNG(2))

	fmt.Println("\nsearch trace (observed = 5-client subsample, true = full validation):")
	for i, obs := range history.All() {
		fmt.Printf("  config %d: server lr %-10.3g client lr %-10.3g batch %-4d observed %5.1f%%  true %5.1f%%\n",
			i, obs.Config.ServerLR, obs.Config.ClientLR, obs.Config.BatchSize,
			obs.Observed*100, obs.True*100)
	}

	best, ok := history.Recommend()
	if !ok {
		log.Fatal("no recommendation")
	}
	fmt.Printf("\nchosen configuration (by noisy evaluation):\n")
	fmt.Printf("  server lr %.3g (beta1 %.2f, beta2 %.3f), client lr %.3g (momentum %.2f), batch %d\n",
		best.Config.ServerLR, best.Config.Beta1, best.Config.Beta2,
		best.Config.ClientLR, best.Config.ClientMomentum, best.Config.BatchSize)
	fmt.Printf("  true full-validation error: %.1f%%\n", best.True*100)
}
