package core

import (
	"fmt"

	"noisyeval/internal/dp"
	"noisyeval/internal/eval"
	"noisyeval/internal/hpo"
	"noisyeval/internal/rng"
)

// Noise is the experiment-facing description of an evaluation-noise setting,
// combining every source the paper studies. The zero value is the noiseless
// reference (full weighted evaluation, no bias, no privacy, natural
// partition).
type Noise struct {
	// SampleCount is the raw number of validation clients per evaluation
	// (0 = full pool). SampleFraction is used when SampleCount == 0.
	SampleCount    int
	SampleFraction float64
	// Bias is the systems-heterogeneity exponent b (0 = uniform).
	Bias float64
	// Epsilon is the total DP budget (0 or +Inf = non-private).
	Epsilon float64
	// HeterogeneityP selects the bank's iid-repartition fraction p
	// (0 = natural non-iid partition).
	HeterogeneityP float64
	// Uniform forces uniform (non-weighted) aggregation even without DP.
	Uniform bool
}

// Noiseless is the reference setting.
func Noiseless() Noise { return Noise{} }

// Scheme converts the noise description to an evaluation scheme. DP is
// handled by tuning methods (hpo.Settings.Epsilon), not the evaluator, so
// the scheme carries subsampling/bias/weighting only.
func (n Noise) Scheme() eval.Scheme {
	weighted := !n.Uniform && !n.Private()
	return eval.Scheme{
		Count:    n.SampleCount,
		Fraction: n.SampleFraction,
		Weighted: weighted,
		Bias:     n.Bias,
	}
}

// Private reports whether DP noise applies.
func (n Noise) Private() bool {
	return n.Epsilon > 0 && n.Epsilon != dp.InfEpsilon
}

// Settings folds the noise's DP budget into tuning settings.
func (n Noise) Settings(base hpo.Settings) hpo.Settings {
	s := base.Normalize()
	if n.Private() {
		s.Epsilon = n.Epsilon
	} else {
		s.Epsilon = dp.InfEpsilon
	}
	return s
}

// String renders the noise setting for experiment logs.
func (n Noise) String() string {
	sample := "full"
	if n.SampleCount > 0 {
		sample = fmt.Sprintf("%d clients", n.SampleCount)
	} else if n.SampleFraction > 0 && n.SampleFraction < 1 {
		sample = fmt.Sprintf("%.2g%% clients", n.SampleFraction*100)
	}
	eps := "inf"
	if n.Private() {
		eps = fmt.Sprintf("%g", n.Epsilon)
	}
	return fmt.Sprintf("sample=%s bias=%g eps=%s p=%g", sample, n.Bias, eps, n.HeterogeneityP)
}

// Tuner runs one tuning method against one oracle — the top-level object a
// downstream user interacts with.
type Tuner struct {
	Method   hpo.Method
	Space    hpo.Space
	Settings hpo.Settings
}

// Run executes a single tuning run.
func (t Tuner) Run(oracle hpo.Oracle, g *rng.RNG) *hpo.History {
	return t.Method.Run(oracle, t.Space, t.Settings, g)
}

// TrialResult is the outcome of one bootstrap trial.
type TrialResult struct {
	Trial   int
	History *hpo.History
	// FinalTrue is the true full-validation error of the final
	// recommendation.
	FinalTrue float64
}

// RunTrials runs n independent bootstrap trials of the tuner on a bank
// oracle. Trial i draws its method randomness from the RNG stream
// g.Split("trial-i") and its evaluation cohorts from the "trial-i" salt —
// result i is what t.Run(oracle.WithTrial(i), g.Splitf("trial-%d", i))
// returns (TestRunTrialsBlockedMatchesSequential) — so results are
// deterministic and independent of scheduling. Execution is the block
// scheduler (RunTrialsProgress, blocked.go).
func (t Tuner) RunTrials(oracle *BankOracle, n int, g *rng.RNG) []TrialResult {
	return t.RunTrialsProgress(oracle, n, g, nil)
}

// FinalErrors extracts the per-trial final true errors.
func FinalErrors(results []TrialResult) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.FinalTrue
	}
	return out
}

// CurveAt extracts the per-trial true-error values at one budget point.
func CurveAt(results []TrialResult, budget int) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = r.History.TrueErrorCurve([]int{budget})[0]
	}
	return out
}
