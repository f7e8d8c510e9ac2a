// Package noisyeval is a Go reproduction of "On Noisy Evaluation in
// Federated Hyperparameter Tuning" (Kuo et al., MLSys 2023). It provides:
//
//   - a pure-Go cross-device federated learning simulator (FedAdam server
//     optimization over client SGD on synthetic populations mirroring
//     CIFAR10 / FEMNIST / StackOverflow / Reddit statistics),
//   - the paper's evaluation-noise models: client subsampling, data
//     heterogeneity (iid repartitioning), systems heterogeneity (biased
//     client selection), and differential privacy (Laplace releases and
//     one-shot top-k selection),
//   - the tuning methods compared in the study: random search, grid search,
//     TPE, successive halving, Hyperband, BOHB, re-evaluation-averaged RS,
//     and the paper's one-shot proxy RS, and
//   - the ConfigBank protocol (train once, bootstrap many trials) plus one
//     experiment driver per table/figure of the paper.
//
// Training runs on one batched engine (minibatch GEMM forward/backward,
// zero-copy in-place client steps, batched evaluation; see DESIGN.md §6).
// Banks are stored and shipped in one format, bankfmt/v5 (SaveBank writes
// it, LoadBank verifies and reads it, DecodeBank reads the same bytes from
// memory; DESIGN.md §9).
//
// This facade re-exports the library's primary types so downstream users
// interact with one import path; packages under internal/ hold the
// implementation. Start with Quickstart in examples/quickstart, or:
//
//	pop := noisyeval.MustGenerate(noisyeval.CIFAR10Like().Scaled(0.2, 0), noisyeval.NewRNG(1))
//	bank, _ := noisyeval.BuildBank(pop, noisyeval.DefaultBuildOptions(), 1)
//	oracle, _ := noisyeval.NewBankOracle(bank, 0, noisyeval.SchemeWithCount(10), 1)
//	hist := noisyeval.Tuner{Method: noisyeval.RandomSearch{}, Space: noisyeval.DefaultSpace(),
//		Settings: noisyeval.DefaultSettings()}.Run(oracle, noisyeval.NewRNG(2))
package noisyeval

import (
	"noisyeval/internal/core"
	"noisyeval/internal/data"
	"noisyeval/internal/dp"
	"noisyeval/internal/eval"
	"noisyeval/internal/fl"
	"noisyeval/internal/hpo"
	"noisyeval/internal/rng"
)

// Federated learning simulator.
type (
	// HParams is one hyperparameter configuration θ (Appendix B).
	HParams = fl.HParams
	// TrainerOptions configures the federated round loop.
	TrainerOptions = fl.Options
	// Trainer runs federated training of one configuration.
	Trainer = fl.Trainer
)

// Datasets.
type (
	// DataSpec describes a synthetic federated population.
	DataSpec = data.Spec
	// Population is a generated train/validation client split.
	Population = data.Population
	// Client is one device with local data.
	Client = data.Client
	// Example is one labelled sample.
	Example = data.Example
)

// Evaluation noise.
type (
	// Scheme configures one evaluation call's noise pipeline.
	Scheme = eval.Scheme
	// Evaluator turns per-client error vectors into (noisy) evaluations.
	Evaluator = eval.Evaluator
	// DPParams configures Laplace perturbation budgets.
	DPParams = dp.Params
)

// Tuning methods and protocol.
type (
	// Space is the hyperparameter search space.
	Space = hpo.Space
	// Budget is the tuning resource budget in training rounds.
	Budget = hpo.Budget
	// Settings configures a tuning run.
	Settings = hpo.Settings
	// Method is one tuning algorithm.
	Method = hpo.Method
	// Oracle is what tuning methods query.
	Oracle = hpo.Oracle
	// History is a tuning run's observation log.
	History = hpo.History
	// Observation is one tuner-visible evaluation event.
	Observation = hpo.Observation

	// RandomSearch, GridSearch, TPE, SuccessiveHalving, Hyperband, BOHB,
	// ResampledRS, and OneShotProxyRS are the tuning methods of the study;
	// FedPop is the population-based evolutionary baseline.
	RandomSearch      = hpo.RandomSearch
	GridSearch        = hpo.GridSearch
	TPE               = hpo.TPE
	SuccessiveHalving = hpo.SuccessiveHalving
	Hyperband         = hpo.Hyperband
	BOHB              = hpo.BOHB
	ResampledRS       = hpo.ResampledRS
	NoisyBO           = hpo.NoisyBO
	OneShotProxyRS    = hpo.OneShotProxyRS
	FedPop            = hpo.FedPop

	// EvalStream inverts a Method's control flow: the caller pulls the
	// method's pending evaluations one EvalBatch at a time (Next), fills in
	// the answers and pulls again, instead of handing the method a blocking
	// oracle.
	EvalStream = hpo.EvalStream
	EvalBatch  = hpo.EvalBatch
	// MethodInfo describes one registry entry (name, aliases, settings hints).
	MethodInfo = hpo.MethodInfo
)

// Bank protocol and orchestration.
type (
	// Bank is the train-once/bootstrap-many artifact of the study.
	Bank = core.Bank
	// BuildOptions configures bank construction.
	BuildOptions = core.BuildOptions
	// BankOracle serves tuning methods from a bank.
	BankOracle = core.BankOracle
	// BankStore is the content-addressed on-disk bank cache (entries keyed
	// by BankKey, written atomically, corrupt entries evicted on load,
	// size-boundable via SetMaxBytes/Prune).
	BankStore = core.BankStore
	// StoreStats reports BankStore cache-effectiveness counters.
	StoreStats = core.StoreStats
	// BankBuilder abstracts how banks come into existence (local build,
	// cache, or the internal/dist coordinator/worker fleet).
	BankBuilder = core.BankBuilder
	// LocalBuilder is the single-process BankBuilder over an optional store.
	LocalBuilder = core.LocalBuilder
	// BuildPlan is the deterministic skeleton of one bank build; shards of
	// its config range train independently and assemble byte-identically.
	BuildPlan = core.BuildPlan
	// BankShard is the training output for one config index range.
	BankShard = core.BankShard
	// ErrMatrix is the bank's dense error tensor of uint32 wrong-counts:
	// one slice in [partition][config][checkpoint][client] order, read
	// through zero-allocation row views.
	ErrMatrix = core.ErrMatrix
	// Tuner couples a method, space, and settings.
	Tuner = core.Tuner
	// Noise describes a combined evaluation-noise setting.
	Noise = core.Noise
	// TrialResult is one bootstrap trial outcome.
	TrialResult = core.TrialResult
	// RNG is the deterministic splittable generator used everywhere.
	RNG = rng.RNG
)

// Dataset constructors (paper Table 1/2 statistics).
var (
	CIFAR10Like       = data.CIFAR10Like
	FEMNISTLike       = data.FEMNISTLike
	StackOverflowLike = data.StackOverflowLike
	RedditLike        = data.RedditLike
	AllSpecs          = data.AllSpecs
	Generate          = data.Generate
	MustGenerate      = data.MustGenerate
	RepartitionIID    = data.RepartitionIID
)

// Simulator constructors.
var (
	NewTrainer            = fl.NewTrainer
	DefaultTrainerOptions = fl.DefaultOptions
)

// Tuning constructors.
var (
	DefaultSpace    = hpo.DefaultSpace
	DefaultBudget   = hpo.DefaultBudget
	DefaultSettings = hpo.DefaultSettings
	RungRounds      = hpo.RungRounds
	// MethodByName resolves a method (canonical name or alias) from the
	// registry; MethodInfos lists the catalogue. NewEvalStream puts a
	// method under ask/tell control; NearestConfig snaps a raw vector to
	// its closest pool member under the space's geometry. NewHistory is the
	// log a custom Method returns, recording pool members by index.
	MethodByName  = hpo.MethodByName
	MethodInfos   = hpo.MethodInfos
	NewEvalStream = hpo.NewEvalStream
	NearestConfig = hpo.NearestConfig
	NewHistory    = hpo.NewHistory
)

// Bank/orchestration constructors.
var (
	DefaultBuildOptions   = core.DefaultBuildOptions
	BuildBank             = core.BuildBank
	BuildBankCached       = core.BuildBankCached
	NewBankStore          = core.NewBankStore
	BankKey               = core.BankKey
	BankKeyForPopulation  = core.BankKeyForPopulation
	PopulationFingerprint = core.PopulationFingerprint
	NewBuildPlan          = core.NewBuildPlan
	AssembleBank          = core.AssembleBank
	ShardRanges           = core.ShardRanges
	NewErrMatrix          = core.NewErrMatrix
	SaveBank              = core.SaveBankV4
	LoadBank              = core.LoadBank
	DecodeBank            = core.DecodeBank
	IsStaleBankFormat     = core.IsStaleBankFormat
	NewBankOracle         = core.NewBankOracle
	FinalErrors           = core.FinalErrors
	NoiselessSetting      = core.Noiseless
)

// TailError returns the q-th percentile per-client error (tail performance,
// paper §6).
func TailError(errs []float64, q float64) float64 { return eval.TailError(errs, q) }

// WorstClientError returns the maximum per-client error.
func WorstClientError(errs []float64) float64 { return eval.WorstClientError(errs) }

// NewRNG returns a deterministic root RNG.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// NoiselessScheme is the paper's noise-free reference evaluation.
func NoiselessScheme() Scheme { return eval.Noiseless() }

// SchemeWithCount evaluates on a fixed number of sampled clients with the
// paper's default weighted aggregation.
func SchemeWithCount(count int) Scheme {
	return Scheme{Count: count, Weighted: true}
}
