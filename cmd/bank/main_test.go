package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"noisyeval/internal/core"
	"noisyeval/internal/data"
	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// tinyGrowInputs returns a small population, build options for a 4-config
// pool and the build seed.
func tinyGrowInputs(t *testing.T) (*data.Population, core.BuildOptions, uint64) {
	t.Helper()
	spec := data.CIFAR10Like()
	spec.TrainClients, spec.EvalClients = 24, 12
	spec.MeanExamples, spec.MinExamples, spec.MaxExamples = 25, 15, 35
	spec.Classes, spec.FeatureDim, spec.Hidden = 4, 8, 12
	opts := core.DefaultBuildOptions()
	opts.NumConfigs, opts.MaxRounds = 4, 9
	opts.Partitions = []float64{0.5, 1}
	return data.MustGenerate(spec, rng.New(1)), opts, 7
}

// saveBase builds the 4-config bank and saves it at path.
func saveBase(t *testing.T, pop *data.Population, opts core.BuildOptions, seed uint64, path string) *core.Bank {
	t.Helper()
	base, err := core.BuildBank(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.SaveBankV4(base, path); err != nil {
		t.Fatal(err)
	}
	return base
}

// TestGrowBankWritesColdBuildBytes: a grown bank file is the file a cold
// build over the union pool saves, byte for byte.
func TestGrowBankWritesColdBuildBytes(t *testing.T) {
	pop, opts, seed := tinyGrowInputs(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "grow.bank")
	base := saveBase(t, pop, opts, seed, path)
	const add = 2
	if err := growBank(context.Background(), path, pop, opts, seed, add, 1); err != nil {
		t.Fatal(err)
	}

	extra := opts.Space.SampleN(add, rng.New(seed).Splitf("grow-%s-%d", base.SpecName, len(base.Configs)))
	union := append(append([]fl.HParams{}, base.Configs...), extra...)
	optsU := opts
	optsU.Configs = union
	cold, err := core.BuildBank(pop, optsU, seed)
	if err != nil {
		t.Fatal(err)
	}
	coldPath := filepath.Join(dir, "cold.bank")
	if err := core.SaveBankV4(cold, coldPath); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(coldPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("grown file (%d B) differs from the cold build's (%d B)", len(got), len(want))
	}
}

// TestGrowBankCancelledLeavesFile: a grow whose context is done writes
// nothing — the file keeps its bytes and no temp file is left beside it.
func TestGrowBankCancelledLeavesFile(t *testing.T) {
	pop, opts, seed := tinyGrowInputs(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "grow.bank")
	saveBase(t, pop, opts, seed, path)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := growBank(ctx, path, pop, opts, seed, 2, 1); err == nil {
		t.Fatal("a cancelled grow reported success")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a cancelled grow changed the file")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".banktmp-") {
			t.Fatalf("a cancelled grow left %s behind", e.Name())
		}
	}
}
