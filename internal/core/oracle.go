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
// nothing beyond the one-time bank build. Every ask is a visit (visitRow):
// the row's wrong-counts become rates (one division per client) in a pooled
// buffer, a single ask's cohort runs through eval's row kernel
// (EvaluateMulti) with its one seed, and every true error is the
// evaluator's FullError of the same rates (its weights are the scheme's, and
// the oracle's scheme carries no privacy). Under a biased scheme the row's
// sampling weights come from the oracle's biasTable, one Pow per (client,
// wrong-count) pair the oracle meets. The oracle owns no per-caller scratch,
// so the base oracle and its WithTrial copies alike are safe for concurrent
// use and allocate nothing on a warm visit.
type BankOracle struct {
	bank      *Bank
	partition float64
	pi        int       // cached PartitionIndex(partition)
	den       []float64 // rateDivisors(bank.ExampleCounts[pi])
	evaluator *eval.Evaluator
	bias      *biasTable // the biased scheme's weights, shared by WithTrial copies; nil when uniform
	seed      uint64
	trialSalt string
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
	o := &BankOracle{bank: b, partition: partition, pi: pi, den: rateDivisors(b.ExampleCounts[pi]),
		evaluator: ev, seed: seed}
	if ev.Scheme().Bias != 0 {
		o.bias = newBiasTable(ev, b.ExampleCounts[pi], o.den)
	}
	return o, nil
}

// visit is one oracle ask's pooled state: the row's counts and rates, its
// prepared bias weights, the row kernel's scratch and a one-element cohort
// seed list. A visit lives for one ask, so the pool serves the base oracle,
// WithTrial copies and the block scheduler's concurrent row workers alike
// without state per caller.
type visit struct {
	row   []uint32
	rates []float64
	bias  rng.Prepared
	ms    eval.MultiScratch
	seed  [1]uint64
}

var visits = sync.Pool{New: func() any { return new(visit) }}

// release puts v back into visits, dropping its hold on the bank's counts.
func (v *visit) release() {
	v.row = nil
	visits.Put(v)
}

// visitRow takes a pooled visit holding the error rates of arena row
// (ci, ri) under the oracle's partition; the caller puts it back into visits
// (release) once the evaluation no longer reads it.
func (o *BankOracle) visitRow(ci, ri int) *visit {
	v := visits.Get().(*visit)
	v.row = o.bank.Errs.Row(o.pi, ci, ri)
	v.rates = ratesInto(v.rates, v.row, o.den)
	return v
}

// observe is one noisy evaluation of the visit's row under evalID's cohort:
// the row kernel over that cohort's one seed.
func (o *BankOracle) observe(v *visit, evalID string) float64 {
	v.seed[0] = o.evalSeed(evalID)
	return o.evaluate(v, v.seed[:], &v.ms)[0].Observed
}

// evaluate runs the row kernel over the visit's row for every seed, with the
// row's bias weights gathered from the table under a biased scheme.
func (o *BankOracle) evaluate(v *visit, seeds []uint64, ms *eval.MultiScratch) []eval.Result {
	var bias rng.Prepared
	if o.bias != nil {
		o.bias.gather(&v.bias, v.row)
		bias = v.bias
	}
	return o.evaluator.EvaluateMulti(v.rates, bias, seeds, ms)
}

// trialSalts interns the "trial-<n>" salt strings shared by WithTrial copies
// and the block scheduler, byte-identical to the fmt.Sprintf("trial-%d", n)
// derivation the salts historically used (pinned by
// TestWithTrialSaltMatchesLegacy).
var trialSalts = hpo.NewIDCache("trial-")

// WithTrial returns a copy whose evaluation subsamples are decorrelated from
// other trials (bootstrap trials must observe independent client subsets).
func (o *BankOracle) WithTrial(trial int) *BankOracle {
	c := *o
	c.trialSalt = trialSalts.ID(trial)
	return &c
}

// poolIndex returns cfg's pool index; cfg must be a pool member.
func (o *BankOracle) poolIndex(cfg fl.HParams) int {
	ci, err := o.bank.ConfigIndex(cfg)
	if err != nil {
		panic(err)
	}
	return ci
}

// Evaluate implements hpo.Oracle.
func (o *BankOracle) Evaluate(cfg fl.HParams, rounds int, evalID string) float64 {
	v := o.visitRow(o.poolIndex(cfg), o.bank.CheckpointIndex(rounds))
	obs := o.observe(v, evalID)
	v.release()
	return obs
}

// TrueError implements hpo.Oracle: the full weighted validation error.
func (o *BankOracle) TrueError(cfg fl.HParams, rounds int) float64 {
	return o.rowTrueError(o.poolIndex(cfg), o.bank.CheckpointIndex(rounds))
}

// EvaluateBatch implements hpo.BatchOracle: each ask is Evaluate and
// TrueError of its pool member, read from one visit of the row.
func (o *BankOracle) EvaluateBatch(b *hpo.EvalBatch) {
	for j, ci := range b.Indices {
		o.checkIndex(ci)
		v := o.visitRow(ci, o.bank.CheckpointIndex(b.RoundsAt(j)))
		b.Out[j] = o.observe(v, b.EvalIDAt(j))
		b.True[j] = o.evaluator.FullError(v.rates)
		v.release()
	}
}

// TrueErrorAt implements hpo.BatchOracle: TrueError of pool member ci.
func (o *BankOracle) TrueErrorAt(ci, rounds int) float64 {
	o.checkIndex(ci)
	return o.rowTrueError(ci, o.bank.CheckpointIndex(rounds))
}

// rowTrueError is the true error of arena row (ci, ri).
func (o *BankOracle) rowTrueError(ci, ri int) float64 {
	v := o.visitRow(ci, ri)
	e := o.evaluator.FullError(v.rates)
	v.release()
	return e
}

// checkIndex panics unless ci names a pool member: a method asking outside
// the pool is a bug, as asking for a non-member config is.
func (o *BankOracle) checkIndex(ci int) {
	if ci < 0 || ci >= len(o.bank.Configs) {
		panic(fmt.Sprintf("core: pool index %d outside [0, %d)", ci, len(o.bank.Configs)))
	}
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
// bank.Configs[ci] with the same evalID (same cohort seed, same visit: zero
// allocations once warm), plus the true error from the same arena row.
// Out-of-range indices and out-of-range rounds return errors instead of
// panicking, because they arrive from the network.
func (o *BankOracle) EvaluateIndex(ci, rounds int, evalID string) (ConfigEval, error) {
	if ci < 0 || ci >= len(o.bank.Configs) {
		return ConfigEval{}, fmt.Errorf("core: config index %d outside pool [0, %d)", ci, len(o.bank.Configs))
	}
	if rounds < 1 {
		return ConfigEval{}, fmt.Errorf("core: rounds %d must be ≥ 1", rounds)
	}
	ri := o.bank.CheckpointIndex(rounds)
	v := o.visitRow(ci, ri)
	ev := ConfigEval{
		ConfigIndex: ci,
		Rounds:      o.bank.Rounds[ri],
		Observed:    o.observe(v, evalID),
		True:        o.evaluator.FullError(v.rates),
	}
	v.release()
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
// seeds[c] — both run the same kernel; the block scheduler uses this to
// answer a whole wave of asks that share a row with a single walk of it, and
// a single conversion of its counts into rates.
func (o *BankOracle) EvaluateRows(ci, ri int, seeds []uint64, ms *eval.MultiScratch) []eval.Result {
	v := o.visitRow(ci, ri)
	rs := o.evaluate(v, seeds, ms)
	v.release()
	return rs
}

// Interface conformance check.
var _ hpo.BatchOracle = (*BankOracle)(nil)
