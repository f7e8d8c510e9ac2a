package hpo

import (
	"fmt"
	"iter"
	"math"
	"slices"

	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// Oracle is what tuning methods query. The implementation is the pre-trained
// config bank (package core); methods search its finite pool.
//
// Evaluate returns the tuner-visible error of a configuration trained to the
// given round: it includes client subsampling, heterogeneity, and biased
// selection noise, but NOT differential-privacy noise — methods apply DP to
// their own releases because the mechanism differs (per-release Laplace for
// RS/TPE, one-shot top-k for rung eliminations).
//
// evalID names the evaluation round; evaluations sharing an evalID observe
// the same sampled client subset (the server evaluates all candidates of a
// round on one cohort, Figure 2 of the paper), while distinct evalIDs draw
// independent cohorts.
type Oracle interface {
	// Evaluate returns the observed (pre-DP) validation error of cfg at the
	// checkpoint nearest to rounds (not exceeding it).
	Evaluate(cfg fl.HParams, rounds int, evalID string) float64
	// TrueError returns the noise-free full weighted validation error of cfg
	// at the checkpoint nearest to rounds. Reporting only; tuners must not
	// use it for decisions.
	TrueError(cfg fl.HParams, rounds int) float64
	// SampleSize returns |S|, the number of clients per evaluation call,
	// used to calibrate DP noise.
	SampleSize() int
	// Pool returns the finite, non-empty candidate pool; methods propose
	// only pool members.
	Pool() []fl.HParams
	// MaxRounds returns the highest trainable round per configuration.
	MaxRounds() int
}

// EvalBatch is a set of independent evaluation asks answered together.
// Indices names each ask's configuration by its position in the oracle's
// pool; Rounds and EvalIDs give per-ask fidelities and evaluation IDs, or —
// when nil — SameRounds/SameEvalID apply to every ask (the shared-cohort
// rung shape of SHA and FedPop). The consumer fills Out with the observed
// errors and True with the true errors of the same (config, checkpoint)
// rows; both must be pre-sized to len(Indices).
type EvalBatch struct {
	Indices    []int
	Rounds     []int
	EvalIDs    []string
	SameRounds int
	SameEvalID string
	Out        []float64
	True       []float64
}

// RoundsAt returns ask i's fidelity.
func (b *EvalBatch) RoundsAt(i int) int {
	if b.Rounds != nil {
		return b.Rounds[i]
	}
	return b.SameRounds
}

// EvalIDAt returns ask i's evaluation ID.
func (b *EvalBatch) EvalIDAt(i int) string {
	if b.EvalIDs != nil {
		return b.EvalIDs[i]
	}
	return b.SameEvalID
}

// BatchOracle is an optional Oracle extension for an oracle that speaks pool
// indices: it answers a whole EvalBatch at once and reads a true error
// without looking the config up. The bank oracle answers the asks itself;
// the EvalStream proxy suspends the method once per batch and hands the
// batch to its consumer as it is — the unit the block scheduler groups by
// arena row and a session serves item by item.
type BatchOracle interface {
	Oracle
	EvaluateBatch(b *EvalBatch)
	// TrueErrorAt is TrueError for pool member i.
	TrueErrorAt(i, rounds int) float64
}

// EvaluateAll answers every ask in b: through the oracle's batch interface
// when it has one, else by looping Evaluate and TrueError over the asks'
// pool members in ask order. Every ask's answer is a pure function of
// (config, rounds, evalID) for the oracles in this repository, so the two
// paths fill Out and True identically and methods may batch independent
// evaluations without perturbing recorded histories.
func EvaluateAll(o Oracle, b *EvalBatch) {
	if len(b.Out) != len(b.Indices) || len(b.True) != len(b.Indices) {
		panic("hpo: EvalBatch.Out or True not sized to its asks")
	}
	if bo, ok := o.(BatchOracle); ok {
		bo.EvaluateBatch(b)
		return
	}
	pool := o.Pool()
	for j, i := range b.Indices {
		r := b.RoundsAt(j)
		b.Out[j] = o.Evaluate(pool[i], r, b.EvalIDAt(j))
		b.True[j] = o.TrueError(pool[i], r)
	}
}

// oneAsk is the scratch batch of a method that asks one evaluation at a
// time (TPE, NoisyBO).
type oneAsk struct {
	batch EvalBatch
	idx   [1]int
	ans   [2]float64 // Out, then True
}

// evaluate answers the one ask (pool member i at rounds under evalID) and
// returns its observed and true errors.
func (a *oneAsk) evaluate(o Oracle, i, rounds int, evalID string) (observed, trueErr float64) {
	a.idx[0] = i
	a.batch = EvalBatch{Indices: a.idx[:], SameRounds: rounds, SameEvalID: evalID, Out: a.ans[:1], True: a.ans[1:]}
	EvaluateAll(o, &a.batch)
	return a.ans[0], a.ans[1]
}

// trueErrorAt is o's true error of pool member i: by index where o speaks
// indices, else through TrueError.
func trueErrorAt(o Oracle, i, rounds int) float64 {
	if bo, ok := o.(BatchOracle); ok {
		return bo.TrueErrorAt(i, rounds)
	}
	return o.TrueError(o.Pool()[i], rounds)
}

// poolIndex returns the position of cfg in pool — the last one, as a map
// keyed by config keeps the last duplicate — or -1 for a non-member.
func poolIndex(pool []fl.HParams, cfg fl.HParams) int {
	for i := len(pool) - 1; i >= 0; i-- {
		if pool[i] == cfg {
			return i
		}
	}
	return -1
}

// Budget is the tuning resource budget, measured in training rounds as in
// the paper (§3, "Hyperparameters"): 6480 rounds total, at most 405 per
// configuration, K = 16 configurations for RS and TPE.
type Budget struct {
	TotalRounds  int
	MaxPerConfig int
	K            int
}

// DefaultBudget returns the paper's budget.
func DefaultBudget() Budget { return Budget{TotalRounds: 6480, MaxPerConfig: 405, K: 16} }

// Scaled returns the budget scaled by f (for reduced-cost experiments),
// keeping K and preserving TotalRounds = K * MaxPerConfig proportionality.
func (b Budget) Scaled(f float64) Budget {
	if f <= 0 {
		panic(fmt.Sprintf("hpo: budget scale %g must be positive", f))
	}
	mpc := int(float64(b.MaxPerConfig) * f)
	if mpc < 1 {
		mpc = 1
	}
	tot := int(float64(b.TotalRounds) * f)
	if tot < mpc {
		tot = mpc
	}
	return Budget{TotalRounds: tot, MaxPerConfig: mpc, K: b.K}
}

// Validate checks the budget.
func (b Budget) Validate() error {
	if b.TotalRounds < 1 || b.MaxPerConfig < 1 || b.K < 1 {
		return fmt.Errorf("hpo: budget %+v has non-positive fields", b)
	}
	if b.MaxPerConfig > b.TotalRounds {
		return fmt.Errorf("hpo: per-config budget %d exceeds total %d", b.MaxPerConfig, b.TotalRounds)
	}
	return nil
}

// Settings configures a tuning run.
type Settings struct {
	Budget Budget
	// Epsilon is the total DP budget for the run; +Inf (or 0, normalized to
	// +Inf) disables privacy noise.
	Epsilon float64
	// Eta is the SHA/Hyperband elimination factor (paper: 3).
	Eta int
	// Brackets is the number of Hyperband brackets (paper: 5).
	Brackets int
}

// DefaultSettings returns the paper's tuning settings with no privacy.
func DefaultSettings() Settings {
	return Settings{Budget: DefaultBudget(), Epsilon: inf(), Eta: 3, Brackets: 5}
}

// Normalize fills defaults.
func (s Settings) Normalize() Settings {
	if s.Epsilon == 0 {
		s.Epsilon = inf()
	}
	if s.Eta < 2 {
		s.Eta = 3
	}
	if s.Brackets < 1 {
		s.Brackets = 5
	}
	if s.Budget == (Budget{}) {
		s.Budget = DefaultBudget()
	}
	return s
}

// Observation is one tuner-visible evaluation event.
type Observation struct {
	Config fl.HParams
	// Rounds is the fidelity (training rounds) at which the config was
	// observed.
	Rounds int
	// Observed is the error the tuner used for its decision (subsampled,
	// biased, DP-noised as applicable). May fall outside [0, 1] under DP.
	Observed float64
	// True is the noise-free full weighted validation error at the same
	// fidelity (reporting only).
	True float64
	// CumRounds is the total training rounds consumed by the method when
	// this observation became available.
	CumRounds int
}

// record is an Observation as a History stores it: pointer-free and 32
// bytes, the config named by its pool index.
type record struct {
	config, rounds    int32
	cumRounds         int
	observed, trueErr float64
}

// History is the ordered log of a tuning run: one record per observation of
// a member of the pool the run searched. Read it through At, All,
// Recommend, RecommendAt and TrueErrorCurve, which resolve each record's
// config from the pool.
type History struct {
	MethodName string
	pool       []fl.HParams
	recs       []record
}

// NewHistory returns an empty log for a run of the named method over pool.
func NewHistory(method string, pool []fl.HParams) *History {
	return &History{MethodName: method, pool: pool}
}

// newHistory is NewHistory over the oracle's pool.
func newHistory(method string, o Oracle) *History { return NewHistory(method, o.Pool()) }

// Add appends an observation of pool member i.
func (h *History) Add(i, rounds int, observed, trueErr float64, cumRounds int) {
	if i < 0 || i >= len(h.pool) || int(int32(rounds)) != rounds {
		panic(fmt.Sprintf("hpo: observation of pool member %d at %d rounds outside a pool of %d", i, rounds, len(h.pool)))
	}
	h.recs = append(h.recs, record{config: int32(i), rounds: int32(rounds), cumRounds: cumRounds, observed: observed, trueErr: trueErr})
}

// Grow ensures capacity for at least n further observations without
// reallocation. Methods call it once up front with the budgeted evaluation
// count so the per-trial log is a single allocation instead of the
// append-doubling ladder.
func (h *History) Grow(n int) {
	if n <= 0 || cap(h.recs)-len(h.recs) >= n {
		return
	}
	grown := make([]record, len(h.recs), len(h.recs)+n)
	copy(grown, h.recs)
	h.recs = grown
}

// Len returns the number of observations.
func (h *History) Len() int { return len(h.recs) }

// At returns observation i, in the order the method made them.
func (h *History) At(i int) Observation {
	r := &h.recs[i]
	return Observation{Config: h.pool[r.config], Rounds: int(r.rounds), Observed: r.observed, True: r.trueErr, CumRounds: r.cumRounds}
}

// PoolIndex returns the pool index of observation i's config.
func (h *History) PoolIndex(i int) int { return int(h.recs[i].config) }

// All yields every observation with its position, in order.
func (h *History) All() iter.Seq2[int, Observation] {
	return func(yield func(int, Observation) bool) {
		for i := range h.recs {
			if !yield(i, h.At(i)) {
				return
			}
		}
	}
}

// RoundsConsumed returns the total training rounds the run consumed.
func (h *History) RoundsConsumed() int {
	max := 0
	for _, r := range h.recs {
		if r.cumRounds > max {
			max = r.cumRounds
		}
	}
	return max
}

// BestAt returns the position of the observation RecommendAt(budget)
// returns, or -1 when no observation fits the budget.
func (h *History) BestAt(budget int) int {
	bi := -1
	for i := range h.recs {
		r := &h.recs[i]
		if r.cumRounds > budget {
			continue
		}
		if bi < 0 || better(r, &h.recs[bi]) {
			bi = i
		}
	}
	return bi
}

// RecommendAt returns the configuration the method would return if stopped
// after the given training-round budget: among observations available within
// the budget, the one at the highest fidelity with the lowest observed
// error (decisions use noisy values — the tuner never sees true errors).
// ok is false if no observation fits the budget.
func (h *History) RecommendAt(budget int) (best Observation, ok bool) {
	if bi := h.BestAt(budget); bi >= 0 {
		return h.At(bi), true
	}
	return Observation{}, false
}

// fullBudget is a budget every observation fits.
const fullBudget = 1 << 62

// Best returns the position of the observation Recommend returns, or -1 for
// an empty log.
func (h *History) Best() int { return h.BestAt(fullBudget) }

// Recommend returns the final recommendation (full budget).
func (h *History) Recommend() (Observation, bool) {
	return h.RecommendAt(fullBudget)
}

// TrueErrorCurve evaluates the recommendation trajectory: for each budget in
// budgets (ascending), the true error of the configuration the method would
// recommend at that point. Budgets before the first observation repeat the
// first recommendation (the paper's curves start at the first config).
func (h *History) TrueErrorCurve(budgets []int) []float64 {
	out := make([]float64, len(budgets))
	for i, b := range budgets {
		if bi := h.BestAt(b); bi >= 0 {
			out[i] = h.recs[bi].trueErr
		} else if fi := h.first(); fi >= 0 {
			out[i] = h.recs[fi].trueErr
		} else {
			out[i] = 1
		}
	}
	return out
}

// first returns the position of the earliest observation by cumulative
// rounds (the first such on a tie), or -1 for an empty log.
func (h *History) first() int {
	if len(h.recs) == 0 {
		return -1
	}
	fi := 0
	for i := range h.recs[1:] {
		if h.recs[i+1].cumRounds < h.recs[fi].cumRounds {
			fi = i + 1
		}
	}
	return fi
}

// better orders observations for recommendation: higher fidelity wins;
// within a fidelity, lower observed error wins.
func better(a, b *record) bool {
	if a.rounds != b.rounds {
		return a.rounds > b.rounds
	}
	return a.observed < b.observed
}

// Method is one hyperparameter tuning algorithm.
type Method interface {
	// Name is the method's display name (RS, TPE, HB, BOHB, ...).
	Name() string
	// Run tunes against the oracle within the settings' budget, using g for
	// all stochastic choices, and returns the observation history.
	Run(o Oracle, space Space, s Settings, g *rng.RNG) *History
}

// sampleConfig draws a candidate uniformly from the oracle's pool (the
// paper's bootstrap protocol resamples the 128 pre-trained configs) and
// returns its pool index.
func sampleConfig(o Oracle, g *rng.RNG) int {
	return g.IntN(len(o.Pool()))
}

// RungRounds returns the fidelity grid {maxR/η^(levels-1), ..., maxR/η, maxR}
// (integer division, deduplicated, minimum 1) used by SHA brackets and by
// config banks to place checkpoints.
func RungRounds(maxR, eta, levels int) []int {
	if maxR < 1 || eta < 2 || levels < 1 {
		panic(fmt.Sprintf("hpo: RungRounds(%d, %d, %d) invalid", maxR, eta, levels))
	}
	// The grid is non-increasing, so a repeat can only equal the last entry.
	out := make([]int, 0, levels)
	r := maxR
	for i := 0; i < levels; i++ {
		if r < 1 {
			r = 1
		}
		if len(out) == 0 || out[len(out)-1] != r {
			out = append(out, r)
		}
		r /= eta
	}
	slices.Reverse(out)
	return out
}

func inf() float64 { return math.Inf(1) }
