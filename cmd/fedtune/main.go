// Command fedtune runs one federated hyperparameter tuning job: pick a
// dataset, a method, and a noise setting; get back the chosen configuration
// and its true full-validation error.
//
// Usage:
//
//	fedtune -dataset cifar10 -method rs -sample-frac 0.01 -epsilon 100 -trials 8
//	fedtune -dataset femnist -method bohb -bank results/banks/femnist.bank
//	fedtune -dataset cifar10 -method tpe -cache-dir ~/.cache/noisyeval-banks
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"strings"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/exper"
	"noisyeval/internal/hpo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fedtune: ")

	var (
		dataset       = flag.String("dataset", "cifar10", "dataset: "+strings.Join(exper.DatasetNames, "|"))
		methodName    = flag.String("method", "rs", "method: "+strings.Join(hpo.Methods(), "|"))
		bankPath      = flag.String("bank", "", "pre-built bank path (default: build a quick bank)")
		cacheDir      = flag.String("cache-dir", "", "content-addressed bank cache directory (default $NOISYEVAL_CACHE_DIR)")
		cacheMaxBytes = flag.Int64("cache-max-bytes", 0, "bank cache size bound: LRU entries are pruned past it (0 = unlimited)")
		sampleN       = flag.Int("sample-count", 0, "eval clients per evaluation (0 = use -sample-frac)")
		sampleFrac    = flag.Float64("sample-frac", 0, "eval client fraction (0 = full evaluation)")
		bias          = flag.Float64("bias", 0, "systems-heterogeneity exponent b")
		epsilon       = flag.Float64("epsilon", 0, "total DP budget (0 = non-private)")
		hetP          = flag.Float64("p", 0, "iid repartition fraction (bank must record it)")
		trials        = flag.Int("trials", 8, "bootstrap trials")
		seed          = flag.Uint64("seed", 1, "RNG seed")
		quick         = flag.Bool("quick", true, "quick-scale bank when none is supplied")
	)
	flag.Parse()

	method, err := hpo.MethodByName(*methodName)
	if err != nil {
		log.Fatal(err)
	}

	cfg := exper.Default()
	if *quick {
		cfg = exper.Quick()
	}
	cfg.Seed = *seed
	suite := exper.NewSuite(cfg)

	if dir := cacheDirOrEnv(*cacheDir); dir != "" {
		store, err := core.NewBankStore(dir)
		if err != nil {
			log.Fatal(err)
		}
		store.Log = slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "bankstore")
		suite.SetStore(store)
		log.Printf("bank cache at %s", store.Dir())
		core.BoundCache(store, *cacheMaxBytes)
	}

	runDataset := *dataset
	if *bankPath != "" {
		bank, err := core.LoadBank(*bankPath)
		if err != nil {
			log.Fatal(err)
		}
		// An explicit -dataset must agree with the bank's recorded dataset;
		// silently retargeting the run would tune against data the user did
		// not name.
		datasetSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "dataset" {
				datasetSet = true
			}
		})
		if datasetSet && *dataset != bank.SpecName {
			log.Fatalf("-dataset %s conflicts with -bank %s (bank records dataset %s); drop -dataset or pass the matching bank",
				*dataset, *bankPath, bank.SpecName)
		}
		runDataset = bank.SpecName
		suite.SetBank(bank.SpecName, bank)
	} else {
		log.Printf("building %s bank (quick=%v)...", runDataset, *quick)
	}

	noise := core.Noise{
		SampleCount:    *sampleN,
		SampleFraction: *sampleFrac,
		Bias:           *bias,
		Epsilon:        *epsilon,
		HeterogeneityP: *hetP,
	}
	req := exper.TuneRequest{
		Dataset: runDataset,
		Method:  method,
		Noise:   noise,
		Trials:  *trials,
		Seed:    *seed,
	}

	log.Printf("tuning %s on %s under [%s], %d trials, budget %d rounds",
		method.Name(), runDataset, noise, *trials, cfg.Budget().TotalRounds)
	start := time.Now()
	res, err := suite.RunTune(req, nil)
	if err != nil {
		log.Fatal(err)
	}
	if suite.BankBuilds() > 0 {
		log.Printf("bank trained in-run; total time %s", time.Since(start).Round(time.Millisecond))
	}

	fmt.Printf("\n%s on %s [%s]\n", res.Method, res.Dataset, res.Noise)
	fmt.Printf("final full-validation error over %d trials:\n", res.Trials)
	fmt.Printf("  median %.2f%%   q1 %.2f%%   q3 %.2f%%   mean %.2f%%\n",
		res.Summary.Median*100, res.Summary.Q1*100, res.Summary.Q3*100, res.Summary.Mean*100)
	if rec := res.Best; rec != nil {
		fmt.Printf("trial-0 chosen config: server lr %.3g (b1 %.2f, b2 %.3f), client lr %.3g (mom %.2f), batch %d\n",
			rec.Config.ServerLR, rec.Config.Beta1, rec.Config.Beta2,
			rec.Config.ClientLR, rec.Config.ClientMomentum, rec.Config.BatchSize)
	}
	fmt.Printf("run key %s\n", res.RunKey)
}

// cacheDirOrEnv resolves the cache directory: the explicit flag wins, then
// NOISYEVAL_CACHE_DIR (the same variable tests and CI use), else none.
func cacheDirOrEnv(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	return strings.TrimSpace(os.Getenv("NOISYEVAL_CACHE_DIR"))
}
