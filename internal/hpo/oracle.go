package hpo

import (
	"fmt"
	"math"
	"sort"

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
// Configs lists the asks; Rounds and EvalIDs give per-ask fidelities and
// evaluation IDs, or — when nil — SameRounds/SameEvalID apply to every ask
// (the shared-cohort rung shape of SHA and FedPop). Out receives the
// observed errors and must be pre-sized to len(Configs).
type EvalBatch struct {
	Configs    []fl.HParams
	Rounds     []int
	EvalIDs    []string
	SameRounds int
	SameEvalID string
	Out        []float64
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

// BatchOracle is an optional Oracle extension for an oracle that can take
// many independent asks at once. The one implementation is the EvalStream
// proxy, which suspends the method once per batch and hands the batch to its
// consumer as it is — the unit the block scheduler groups by arena row and a
// session serves item by item.
type BatchOracle interface {
	Oracle
	EvaluateBatch(b *EvalBatch)
}

// EvaluateAll answers every ask in b: through the oracle's batch interface
// when it has one, else by looping Evaluate in ask order. Every ask's answer
// is a pure function of (config, rounds, evalID) for the oracles in this
// repository, so the two paths fill Out identically and methods may batch
// independent evaluations without perturbing recorded histories.
func EvaluateAll(o Oracle, b *EvalBatch) {
	if len(b.Out) != len(b.Configs) {
		panic("hpo: EvalBatch.Out not sized to its asks")
	}
	if bo, ok := o.(BatchOracle); ok && len(b.Configs) > 1 {
		bo.EvaluateBatch(b)
		return
	}
	for i, cfg := range b.Configs {
		b.Out[i] = o.Evaluate(cfg, b.RoundsAt(i), b.EvalIDAt(i))
	}
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

// History is the ordered log of a tuning run.
type History struct {
	MethodName   string
	Observations []Observation
}

// Add appends an observation.
func (h *History) Add(o Observation) { h.Observations = append(h.Observations, o) }

// Grow ensures capacity for at least n further observations without
// reallocation. Methods call it once up front with the budgeted evaluation
// count so the per-trial log is a single allocation instead of the
// append-doubling ladder.
func (h *History) Grow(n int) {
	if n <= 0 || cap(h.Observations)-len(h.Observations) >= n {
		return
	}
	grown := make([]Observation, len(h.Observations), len(h.Observations)+n)
	copy(grown, h.Observations)
	h.Observations = grown
}

// RoundsConsumed returns the total training rounds the run consumed.
func (h *History) RoundsConsumed() int {
	max := 0
	for _, o := range h.Observations {
		if o.CumRounds > max {
			max = o.CumRounds
		}
	}
	return max
}

// RecommendAt returns the configuration the method would return if stopped
// after the given training-round budget: among observations available within
// the budget, the one at the highest fidelity with the lowest observed
// error (decisions use noisy values — the tuner never sees true errors).
// ok is false if no observation fits the budget.
func (h *History) RecommendAt(budget int) (best Observation, ok bool) {
	bi := -1 // the walk compares in place; an Observation is a dozen words
	for i := range h.Observations {
		o := &h.Observations[i]
		if o.CumRounds > budget {
			continue
		}
		if bi < 0 || better(o, &h.Observations[bi]) {
			bi = i
		}
	}
	if bi < 0 {
		return Observation{}, false
	}
	return h.Observations[bi], true
}

// Recommend returns the final recommendation (full budget).
func (h *History) Recommend() (Observation, bool) {
	return h.RecommendAt(1 << 62)
}

// TrueErrorCurve evaluates the recommendation trajectory: for each budget in
// budgets (ascending), the true error of the configuration the method would
// recommend at that point. Budgets before the first observation repeat the
// first recommendation (the paper's curves start at the first config).
func (h *History) TrueErrorCurve(budgets []int) []float64 {
	out := make([]float64, len(budgets))
	for i, b := range budgets {
		if rec, ok := h.RecommendAt(b); ok {
			out[i] = rec.True
		} else if first, ok := h.firstObservation(); ok {
			out[i] = first.True
		} else {
			out[i] = 1
		}
	}
	return out
}

func (h *History) firstObservation() (Observation, bool) {
	if len(h.Observations) == 0 {
		return Observation{}, false
	}
	first := h.Observations[0]
	for _, o := range h.Observations[1:] {
		if o.CumRounds < first.CumRounds {
			first = o
		}
	}
	return first, true
}

// better orders observations for recommendation: higher fidelity wins;
// within a fidelity, lower observed error wins.
func better(a, b *Observation) bool {
	if a.Rounds != b.Rounds {
		return a.Rounds > b.Rounds
	}
	return a.Observed < b.Observed
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
// paper's bootstrap protocol resamples the 128 pre-trained configs).
func sampleConfig(o Oracle, g *rng.RNG) fl.HParams {
	pool := o.Pool()
	return pool[g.IntN(len(pool))]
}

// RungRounds returns the fidelity grid {maxR/η^(levels-1), ..., maxR/η, maxR}
// (integer division, deduplicated, minimum 1) used by SHA brackets and by
// config banks to place checkpoints.
func RungRounds(maxR, eta, levels int) []int {
	if maxR < 1 || eta < 2 || levels < 1 {
		panic(fmt.Sprintf("hpo: RungRounds(%d, %d, %d) invalid", maxR, eta, levels))
	}
	seen := map[int]bool{}
	var out []int
	r := maxR
	for i := 0; i < levels; i++ {
		if r < 1 {
			r = 1
		}
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
		r /= eta
	}
	sort.Ints(out)
	return out
}

func inf() float64 { return math.Inf(1) }
