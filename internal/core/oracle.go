package core

import (
	"fmt"
	"sync"

	"noisyeval/internal/eval"
	"noisyeval/internal/fl"
	"noisyeval/internal/hpo"
	"noisyeval/internal/rng"
)

// BankOracle serves tuning methods from a pre-trained Bank: evaluations are
// real subsamples/reweightings of recorded per-client errors — contiguous
// arena rows, no pointer chasing — so hundreds of bootstrap trials cost
// nothing beyond the one-time bank build. Each visit converts the row's
// wrong-counts into rates (one division per client, into a pooled buffer)
// and hands eval's kernels the []float64 they take. The base oracle is safe
// for concurrent use (the bank is read-only, and it owns no scratch); each
// WithTrial copy additionally carries private scratch buffers reused across
// that trial's evaluations, making the RunTrials hot path allocation-light.
type BankOracle struct {
	bank      *Bank
	partition float64
	pi        int       // cached PartitionIndex(partition)
	den       []float64 // rateDivisors(bank.ExampleCounts[pi])
	evaluator *eval.Evaluator
	full      *eval.Evaluator // full-pool weighted evaluator for TrueError
	seed      uint64
	trialSalt string
	// noiseless: the scheme observes the whole pool without bias, so every
	// evaluation is the pool aggregate and draws no randomness.
	noiseless bool

	// scratch is per-trial state: nil on the shared base oracle (Evaluate
	// then allocates per call, exactly as before), owned exclusively by one
	// goroutine on a WithTrial copy.
	scratch *oracleScratch
}

// oracleScratch is the reusable per-trial state: the evaluator's sampling
// buffers and one reseedable RNG, so an evaluation allocates nothing.
type oracleScratch struct {
	eval eval.Scratch
	g    *rng.RNG
}

// NewBankOracle builds an oracle over the bank's given partition with the
// evaluation scheme (subsampling, bias; any DP in the scheme is ignored —
// tuning methods privatize their own releases). seed decorrelates
// evaluation subsampling across oracles; use a distinct trial salt per
// bootstrap trial via WithTrial.
func NewBankOracle(b *Bank, partition float64, scheme eval.Scheme, seed uint64) (*BankOracle, error) {
	pi, err := b.PartitionIndex(partition)
	if err != nil {
		return nil, err
	}
	// The oracle never applies DP itself.
	scheme.DP.Epsilon = 0
	scheme.DP.TotalEvals = 0
	ev, err := eval.New(b.ExampleCounts[pi], scheme)
	if err != nil {
		return nil, err
	}
	fullScheme := eval.Noiseless()
	fullScheme.Weighted = scheme.Weighted
	full, err := eval.New(b.ExampleCounts[pi], fullScheme)
	if err != nil {
		return nil, err
	}
	return &BankOracle{bank: b, partition: partition, pi: pi, den: rateDivisors(b.ExampleCounts[pi]),
		evaluator: ev, full: full, seed: seed, noiseless: scheme.IsFull(len(b.ExampleCounts[pi]))}, nil
}

// rateRows pools the buffers count rows are converted into. A buffer lives
// for one evaluation, so the pool serves the base oracle, WithTrial copies
// and the block scheduler's concurrent row workers alike without a buffer
// per caller.
var rateRows = sync.Pool{New: func() any { return new([]float64) }}

// rates returns the error rates of arena row (ci, ri) under the oracle's
// partition in a pooled buffer; the caller puts it back into rateRows once
// the evaluation no longer reads it.
func (o *BankOracle) rates(ci, ri int) *[]float64 {
	buf := rateRows.Get().(*[]float64)
	*buf = ratesInto(*buf, o.bank.Errs.Row(o.pi, ci, ri), o.den)
	return buf
}

// trialSalts interns the "trial-<n>" salt strings shared by WithTrial copies
// and the block scheduler, byte-identical to the fmt.Sprintf("trial-%d", n)
// derivation the salts historically used (pinned by
// TestWithTrialSaltMatchesLegacy).
var trialSalts = hpo.NewIDCache("trial-")

// WithTrial returns a copy whose evaluation subsamples are decorrelated from
// other trials (bootstrap trials must observe independent client subsets).
// The copy carries its own scratch buffers, so one trial's evaluations reuse
// memory; use each copy from a single goroutine, as RunTrials does.
func (o *BankOracle) WithTrial(trial int) *BankOracle {
	c := *o
	c.trialSalt = trialSalts.ID(trial)
	c.scratch = &oracleScratch{g: rng.New(0)}
	return &c
}

// row returns the error rates of (cfg, rounds) under the oracle's partition
// in a pooled buffer (see rates).
func (o *BankOracle) row(cfg fl.HParams, rounds int) *[]float64 {
	ci, err := o.bank.ConfigIndex(cfg)
	if err != nil {
		panic(err)
	}
	return o.rates(ci, o.bank.CheckpointIndex(rounds))
}

// observe is one noisy evaluation of a rate row under evalID's cohort. A
// noiseless scheme's cohort is the whole pool in index order, so the release
// is the evaluator's pool aggregate — the same fl.WeightedError loop in the
// same order as the identity subset — with no seed hash, RNG or index slice.
func (o *BankOracle) observe(errs []float64, evalID string) float64 {
	if o.noiseless {
		return o.evaluator.FullError(errs)
	}
	if s := o.scratch; s != nil {
		s.g.Reseed(o.evalSeed(evalID))
		return o.evaluator.EvaluateScratch(errs, s.g, &s.eval).Observed
	}
	return o.evaluator.Evaluate(errs, rng.New(o.evalSeed(evalID))).Observed
}

// Evaluate implements hpo.Oracle.
func (o *BankOracle) Evaluate(cfg fl.HParams, rounds int, evalID string) float64 {
	buf := o.row(cfg, rounds)
	v := o.observe(*buf, evalID)
	rateRows.Put(buf)
	return v
}

// TrueError implements hpo.Oracle: the full weighted validation error.
func (o *BankOracle) TrueError(cfg fl.HParams, rounds int) float64 {
	buf := o.row(cfg, rounds)
	v := o.full.FullError(*buf)
	rateRows.Put(buf)
	return v
}

// ConfigEval is the outcome of one single-config evaluation — the session
// API's unit of work (EvaluateIndex).
type ConfigEval struct {
	// ConfigIndex is the evaluated pool index.
	ConfigIndex int
	// Rounds is the checkpoint actually read: the highest recorded
	// checkpoint not exceeding the requested rounds.
	Rounds int
	// Observed is the noisy (subsampled/biased, pre-DP) validation error.
	Observed float64
	// True is the noise-free full weighted validation error at Rounds.
	True float64
}

// EvaluateIndex evaluates pool configuration ci at the checkpoint nearest to
// rounds (not exceeding it) under evalID's cohort, addressing the config by
// index instead of by value — the entry point for ask/tell sessions, where
// external callers speak pool indices. It is exactly Evaluate for
// bank.Configs[ci] with the same evalID (same cohort seed, same scratch
// reuse: zero allocations on a WithTrial copy), plus the true error from the
// same arena row. Out-of-range indices and out-of-range rounds return errors
// instead of panicking, because they arrive from the network.
func (o *BankOracle) EvaluateIndex(ci, rounds int, evalID string) (ConfigEval, error) {
	if ci < 0 || ci >= len(o.bank.Configs) {
		return ConfigEval{}, fmt.Errorf("core: config index %d outside pool [0, %d)", ci, len(o.bank.Configs))
	}
	if rounds < 1 {
		return ConfigEval{}, fmt.Errorf("core: rounds %d must be ≥ 1", rounds)
	}
	ri := o.bank.CheckpointIndex(rounds)
	buf := o.rates(ci, ri)
	ev := ConfigEval{
		ConfigIndex: ci,
		Rounds:      o.bank.Rounds[ri],
		Observed:    o.observe(*buf, evalID),
		True:        o.full.FullError(*buf),
	}
	rateRows.Put(buf)
	return ev, nil
}

// SampleSize implements hpo.Oracle.
func (o *BankOracle) SampleSize() int { return o.evaluator.SampleSize() }

// Pool implements hpo.Oracle: the bank's configurations.
func (o *BankOracle) Pool() []fl.HParams { return o.bank.Configs }

// MaxRounds implements hpo.Oracle.
func (o *BankOracle) MaxRounds() int { return o.bank.MaxRounds() }

// Bank returns the underlying bank.
func (o *BankOracle) Bank() *Bank { return o.bank }

// evalSeed derives the evaluation stream seed for an evaluation round: same
// (seed, trial, evalID) -> same client cohort, so all configurations of a
// rung share a cohort (Figure 2), while distinct rounds/trials draw
// independent cohorts. The hash is FNV-1a (rng.FNV64a, the package's one
// canonical implementation) over the exact byte sequence
// fmt.Fprintf(h, "%d|%s|%s", seed, trialSalt, evalID) historically produced
// — allocation-free — pinned by TestEvalSeedMatchesLegacyDerivation.
func (o *BankOracle) evalSeed(evalID string) uint64 {
	return o.evalSeedFor(o.trialSalt, evalID)
}

// evalSeedFor is evalSeed with an explicit trial salt: the block scheduler
// derives cohort seeds for many trials through one shared base oracle, so
// the salt is a parameter instead of WithTrial copy state. evalSeed is a
// pure function of (seed, trialSalt, evalID) — this is what makes blocked
// execution bit-identical to one WithTrial run per trial regardless of
// scheduling.
func (o *BankOracle) evalSeedFor(trialSalt, evalID string) uint64 {
	return o.evalSeedPrefix(trialSalt).String(evalID).Sum()
}

// evalSeedPrefix is the evalID-independent FNV prefix of evalSeedFor
// ("<seed>|<trialSalt>|"): the scheduler hashes it once per trial and folds
// only the evalID per ask.
func (o *BankOracle) evalSeedPrefix(trialSalt string) rng.FNV64a {
	return rng.NewFNV64a().
		Uint64Decimal(o.seed).Byte('|').
		String(trialSalt).Byte('|')
}

// EvaluateRows is the oracle's row-sweep entry point: it evaluates the arena
// row of pool config ci at checkpoint index ri once for every cohort seed,
// returning one Result per seed (valid until the scratch's next use). Cohort
// c is bit-identical to Evaluate on a WithTrial copy whose evalSeed equals
// seeds[c]; the block scheduler uses this to answer a whole wave of asks
// that share a row with a single walk of it, and a single conversion of its
// counts into rates.
func (o *BankOracle) EvaluateRows(ci, ri int, seeds []uint64, ms *eval.MultiScratch) []eval.Result {
	buf := o.rates(ci, ri)
	rs := o.evaluator.EvaluateMulti(*buf, seeds, ms)
	rateRows.Put(buf)
	return rs
}

// Interface conformance check.
var _ hpo.Oracle = (*BankOracle)(nil)
