// Command bank builds a config bank (the study's reusable training
// artifact) for one dataset and writes it to disk for cmd/figures and
// cmd/fedtune to reuse (bankfmt/v5, the one format banks take). It can also
// inspect a bank file — a file in a retired format is named, with the
// rebuild that replaces it — and grow an existing bank with freshly trained
// configs, rewriting the file whole.
//
// Usage:
//
//	bank -dataset cifar10 -out results/banks/cifar10.bank -scale 1.0 -configs 128 -rounds 405
//	bank -info results/banks/cifar10.bank
//	bank -grow 16 -dataset cifar10 -out results/banks/cifar10.bank -scale 1.0 -rounds 405
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/data"
	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bank: ")

	var (
		dataset    = flag.String("dataset", "cifar10", "dataset: cifar10|femnist|stackoverflow|reddit")
		out        = flag.String("out", "", "output path (default results/banks/<dataset>.bank)")
		scale      = flag.Float64("scale", 1.0, "client-count scale factor")
		capEx      = flag.Int("cap", 500, "per-client example cap (0 = none)")
		configs    = flag.Int("configs", 128, "config pool size")
		rounds     = flag.Int("rounds", 405, "max training rounds per config")
		seed       = flag.Uint64("seed", 1, "RNG seed")
		partitions = flag.String("partitions", "0.5,1", "extra iid-repartition fractions (comma-separated)")
		workers    = flag.Int("workers", 0, "build parallelism (0 = GOMAXPROCS)")
		cacheDir   = flag.String("cache-dir", "", "content-addressed bank cache directory (skip training on hit)")
		info       = flag.String("info", "", "inspect the bank file at this path and exit (no training)")
		grow       = flag.Int("grow", 0, "grow the existing bank at -out by N configs instead of building (pass the original build flags)")
	)
	flag.Parse()

	if *info != "" {
		if err := printInfo(*info); err != nil {
			log.Fatal(err)
		}
		return
	}

	spec, err := specByName(*dataset)
	if err != nil {
		log.Fatal(err)
	}
	spec = spec.Scaled(*scale, *capEx)

	path := *out
	if path == "" {
		path = fmt.Sprintf("results/banks/%s.bank", *dataset)
	}

	var ps []float64
	for _, tok := range strings.Split(*partitions, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			log.Fatalf("bad partition %q: %v", tok, err)
		}
		ps = append(ps, v)
	}

	log.Printf("generating %s population (%d train / %d eval clients)...", spec.Name, spec.TrainClients, spec.EvalClients)
	pop := data.MustGenerate(spec, rng.New(*seed).Split("pop-"+spec.Name))

	opts := core.DefaultBuildOptions()
	opts.NumConfigs = *configs
	opts.MaxRounds = *rounds
	opts.Partitions = ps
	opts.Workers = *workers

	if *grow > 0 {
		// An interrupt stops the training before anything is written, so
		// the file stays as it was.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		err := growBank(ctx, path, pop, opts, *seed, *grow, *workers)
		stop()
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	var store *core.BankStore
	if *cacheDir != "" {
		store, err = core.NewBankStore(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		store.Log = slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "bankstore")
		log.Printf("bank cache at %s (key %s)", store.Dir(), core.BankKeyForPopulation(pop, opts, *seed))
	}

	log.Printf("training %d configs x %d rounds (checkpoints at rungs, partitions %v)...", *configs, *rounds, append([]float64{0}, ps...))
	start := time.Now()
	bank, hit, err := core.BuildBankCached(context.Background(), store, pop, opts, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if hit {
		log.Printf("cache hit, skipped training (%s)", time.Since(start).Round(time.Millisecond))
	} else {
		log.Printf("built in %s", time.Since(start).Round(time.Second))
	}

	if err := core.SaveBankV4(bank, path); err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(path)
	log.Printf("wrote %s (%d bytes)", path, fi.Size())
}

// printInfo renders an InspectBank report. A torn or corrupt file still
// prints whatever is intact before the error surfaces, so the report is
// usable for diagnosing exactly where a file went bad.
func printInfo(path string) error {
	bi, err := core.InspectBank(path)
	if bi == nil {
		return err
	}
	format := "bankfmt/v5 (segmented, mmap-served, uint32 counts)"
	switch {
	case bi.Version == 0:
		format = "gob+gzip (retired)"
	case bi.Version != 5:
		format = fmt.Sprintf("bankfmt/v%d (not readable by this build)", bi.Version)
	}
	fmt.Printf("bank:      %s\n", bi.Path)
	fmt.Printf("format:    %s\n", format)
	if bi.SpecName != "" {
		fmt.Printf("spec:      %s (seed %d)\n", bi.SpecName, bi.Seed)
	}
	if bi.Dims != [4]int{} {
		fmt.Printf("dims:      %d partitions x %d configs x %d checkpoints x %d clients\n",
			bi.Dims[0], bi.Dims[1], bi.Dims[2], bi.Dims[3])
	}
	fmt.Printf("on disk:   %d bytes\n", bi.FileBytes)
	if bi.ArenaBytes > 0 {
		fmt.Printf("arena:     %d bytes of uint32 counts (mapped zero-copy on open)\n", bi.ArenaBytes)
	}
	if len(bi.Segments) > 0 {
		fmt.Printf("segments:\n")
		for _, s := range bi.Segments {
			crc, live := "ok", ""
			if !s.CRCOK {
				crc = "BAD"
			}
			if s.Live {
				live = "  live"
			}
			span := ""
			if s.Kind == "arena" {
				span = fmt.Sprintf("  configs [%d,%d)", s.Lo, s.Hi)
			}
			fmt.Printf("  #%d %-7s seq %-3d off %-10d bytes %-12d crc %s%s%s\n",
				s.Index, s.Kind, s.Seq, s.Offset, s.Bytes, crc, span, live)
		}
	}
	if bi.Torn != "" {
		fmt.Printf("torn:      %s\n", bi.Torn)
	}
	return err
}

// growBank extends the bank at path by add freshly trained configs: exactly
// the new index range is trained, and the grown bank replaces the file
// whole through SaveBankV4 (temp file, fsync, atomic rename), so a reader
// sees the old file or the grown one, never a mix. The extra configs derive
// deterministically from the bank's own seed, spec, and pool size, so the
// grown file is byte-identical to a cold build over the union pool. The
// remaining flags must repeat the original build's inputs — Extend verifies
// them against the bank.
func growBank(ctx context.Context, path string, pop *data.Population, opts core.BuildOptions, seed uint64, add, workers int) error {
	old, err := core.LoadBank(path)
	if err != nil {
		return err
	}
	cur := old.Configs
	extra := opts.Space.SampleN(add, rng.New(old.Seed).Splitf("grow-%s-%d", old.SpecName, len(cur)))
	union := append(append([]fl.HParams{}, cur...), extra...)
	opts.Configs = union
	plan, err := core.NewBuildPlan(pop, opts, seed)
	if err != nil {
		return err
	}
	log.Printf("training %d new configs [%d,%d)...", add, len(cur), len(union))
	start := time.Now()
	shard, err := plan.TrainRangeCtx(ctx, len(cur), len(union), workers)
	if err != nil {
		return err
	}
	grown, err := old.Extend(plan, []*core.BankShard{shard})
	if err != nil {
		return err
	}
	if err := core.SaveBankV4(grown, path); err != nil {
		return err
	}
	fi, _ := os.Stat(path)
	log.Printf("grew %s to %d configs (%d bytes, %s)", path, len(grown.Configs), fi.Size(), time.Since(start).Round(time.Millisecond))
	return nil
}

func specByName(name string) (data.Spec, error) {
	for _, s := range data.AllSpecs() {
		if s.Name == name {
			return s, nil
		}
	}
	return data.Spec{}, fmt.Errorf("unknown dataset %q", name)
}
