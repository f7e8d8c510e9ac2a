package main

import (
	"fmt"

	"noisyeval/internal/core"
	"noisyeval/internal/exper"
	"noisyeval/pkg/client"
)

// Every input below is a pure function of -seed: requests, scale seeds and
// noise settings are generated here and the program under test sees nothing
// else of the seed.

// families are the paper's four evaluation-noise sources, cycled by op index.
var families = []client.Noise{
	{SampleCount: 3},                    // client subsampling
	{SampleCount: 3, Bias: 1.5},         // systems heterogeneity (biased selection)
	{SampleCount: 3, Epsilon: 100},      // differential privacy
	{SampleCount: 3, HeterogeneityP: 1}, // data heterogeneity (iid repartition)
}

func family(i int) client.Noise { return families[i%len(families)] }

// coreNoise converts the wire noise to the library form (the same mapping
// serve.NoiseRequest.Noise applies).
func coreNoise(n client.Noise) core.Noise {
	return core.Noise{
		SampleCount:    n.SampleCount,
		SampleFraction: n.SampleFraction,
		Bias:           n.Bias,
		Epsilon:        n.Epsilon,
		HeterogeneityP: n.HeterogeneityP,
		Uniform:        n.Uniform,
	}
}

// warmBase offsets warm-up op indices so warm-up inputs are disjoint from
// the timed ones.
const warmBase = 1 << 30

// runSeed is op i's request seed: distinct per (seed, i), never 0 (the
// server normalizes a zero seed to 1, which would alias two keys).
func runSeed(seed uint64, i int) uint64 { return seed<<32 + uint64(i) + 1 }

// Scale names registered through serve.Options.Scales.
const (
	scaleBench = "bench"
	scaleFig   = "fig"
)

// benchScale is the warm bank serve_mix and tune_heavy tune against: a
// 3×64×4×50 error bank (partitions × configs × checkpoints × clients). Its
// seed is fixed so every -seed reads the same bank and only the requests
// differ; timings then compare across seeds.
func benchScale() exper.Config {
	cfg := exper.Quick()
	cfg.Scales["cifar10"] = 0.5
	cfg.BankConfigs = 64
	cfg.K = 16
	return cfg
}

// figScale is the quick configuration with the paper's trial counts; the
// suite seed is -seed, as cmd/figures -seed sets it.
func figScale(seed uint64) exper.Config {
	cfg := exper.Quick()
	cfg.Trials = 100
	cfg.MethodTrials = 8
	cfg.Seed = seed
	return cfg
}

// coldScaleName names cold_build op j's never-seen scale.
func coldScaleName(j int) string {
	if j >= warmBase {
		return fmt.Sprintf("cold-w%d", j-warmBase)
	}
	return fmt.Sprintf("cold-%d", j)
}

// coldScale is a quick configuration under a seed no other op uses, so each
// of its four banks has a content address the store has never seen.
func coldScale(seed uint64, j int) exper.Config {
	cfg := exper.Quick()
	cfg.Seed = seed*1000 + uint64(j%warmBase)
	if j >= warmBase {
		cfg.Seed += 500
	}
	return cfg
}

// serveMixRequest is visit i's write: a distinct light run key.
func serveMixRequest(seed uint64, i int) client.RunRequest {
	return client.RunRequest{Dataset: "cifar10", Method: "rs", Scale: scaleBench, Trials: 2,
		Seed: runSeed(seed, i), Noise: family(i)}
}

// serveMixRevisit picks the earlier visit whose request visit i re-submits
// and re-reads; it spreads over the whole history so old and recent runs are
// both hit. Indices are relative to the phase (timed or warm-up).
func serveMixRevisit(i int) int { return (i * 7919) % (i + 1) }

// tuneMethods are the Figure-8 cell's methods, in submission order.
var tuneMethods = []string{"rs", "tpe", "hb", "bohb"}

const tuneTrials = 64

// tuneHeavyRequest is cell i's run for method m.
func tuneHeavyRequest(seed uint64, i int, m string) client.RunRequest {
	return client.RunRequest{Dataset: "cifar10", Method: m, Scale: scaleBench, Trials: tuneTrials,
		Seed: runSeed(seed, i), Noise: family(i)}
}

// tuneHeavySession is cell i's driven rs session, the ask/tell twin of the
// cell's rs run (same noise, seed and trial 0).
func tuneHeavySession(seed uint64, i int) client.SessionRequest {
	return client.SessionRequest{Dataset: "cifar10", Method: "rs", Scale: scaleBench,
		Seed: runSeed(seed, i), Trial: 0, Noise: family(i)}
}

const coldTrials = 8

// coldBuildRequest is op i's run against dataset d on the op's fresh scale.
func coldBuildRequest(seed uint64, i int, d string) client.RunRequest {
	return client.RunRequest{Dataset: d, Method: "rs", Scale: coldScaleName(i), Trials: coldTrials,
		Seed: runSeed(seed, i), Noise: family(i)}
}
