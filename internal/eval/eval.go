// Package eval implements the study's federated evaluation pipeline (Eq. 2
// and Figure 2 of the paper): a hyperparameter configuration's per-client
// error vector is reduced to a scalar through client subsampling (uniform or
// biased by systems heterogeneity), weighted aggregation, and optional
// differential-privacy perturbation.
//
// The per-client error vectors come from fl.Trainer.EvalClients or a
// core.Bank's recorded rows; this package only deals with turning a vector
// into a (noisy) evaluation.
package eval

import (
	"fmt"
	"math"
	"sort"

	"noisyeval/internal/dp"
	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// DefaultBiasDelta is the paper's δ = 1e-4 in the systems-heterogeneity
// sampling weight (a_k + δ)^b.
const DefaultBiasDelta = 1e-4

// Scheme describes how one evaluation call observes the client population.
type Scheme struct {
	// Count is the raw number of validation clients sampled per evaluation
	// (|S|). Zero means evaluate the full pool. If both Count and Fraction
	// are set, Count wins.
	Count int
	// Fraction samples ceil(Fraction * Nval) clients when Count == 0.
	Fraction float64
	// Weighted selects p_val,k = client example count (true, the paper's
	// default) or p_val,k = 1 (false; required under DP, footnote 1).
	Weighted bool
	// Bias is the systems-heterogeneity exponent b >= 0: clients are sampled
	// with probability proportional to (accuracy + DefaultBiasDelta)^Bias.
	// Zero means uniform sampling.
	Bias float64
	// DP configures Laplace perturbation of released evaluations.
	// A zero value (Epsilon == 0) is treated as non-private.
	DP dp.Params
}

// Noiseless returns the paper's noise-free reference scheme: full weighted
// evaluation without privacy.
func Noiseless() Scheme {
	return Scheme{Weighted: true, DP: dp.Params{Epsilon: dp.InfEpsilon}}
}

// Normalize fills defaults and validates, returning the effective scheme.
func (s Scheme) Normalize(nClients int) (Scheme, error) {
	if nClients <= 0 {
		return s, fmt.Errorf("eval: population has no validation clients")
	}
	if s.DP.Epsilon == 0 {
		s.DP.Epsilon = dp.InfEpsilon
	}
	if s.Bias < 0 {
		return s, fmt.Errorf("eval: bias exponent %g must be non-negative", s.Bias)
	}
	if s.Count < 0 || s.Count > nClients {
		return s, fmt.Errorf("eval: sample count %d outside [0, %d]", s.Count, nClients)
	}
	if s.Fraction < 0 || s.Fraction > 1 {
		return s, fmt.Errorf("eval: fraction %g outside [0, 1]", s.Fraction)
	}
	if s.Count == 0 {
		if s.Fraction == 0 || s.Fraction == 1 {
			s.Count = nClients
		} else {
			s.Count = int(math.Ceil(s.Fraction * float64(nClients)))
			if s.Count < 1 {
				s.Count = 1
			}
		}
	}
	if s.DP.Private() {
		// Uniform weighting is required to bound sensitivity independently
		// of any client's local dataset size (paper footnote 1).
		s.Weighted = false
	}
	if err := s.DP.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// SampleSize returns |S| for a pool of nClients under this scheme.
func (s Scheme) SampleSize(nClients int) int {
	n, err := s.Normalize(nClients)
	if err != nil {
		panic(err)
	}
	return n.Count
}

// IsFull reports whether the scheme evaluates the entire pool without bias
// or privacy noise (subsampling noise absent).
func (s Scheme) IsFull(nClients int) bool {
	n, err := s.Normalize(nClients)
	if err != nil {
		return false
	}
	return n.Count == nClients && n.Bias == 0 && !n.DP.Private()
}

// Evaluator applies a Scheme to per-client error vectors. Construct with
// New; the evaluator is immutable and safe for concurrent use as long as
// each goroutine passes its own RNG.
type Evaluator struct {
	scheme  Scheme
	weights []float64 // p_val,k under the scheme's weighting
}

// New builds an evaluator for a validation pool described by its per-client
// example counts (used for weighted aggregation).
func New(exampleCounts []int, scheme Scheme) (*Evaluator, error) {
	norm, err := scheme.Normalize(len(exampleCounts))
	if err != nil {
		return nil, err
	}
	w := make([]float64, len(exampleCounts))
	for i, n := range exampleCounts {
		if norm.Weighted {
			if n <= 0 {
				return nil, fmt.Errorf("eval: client %d has no examples but weighted aggregation requested", i)
			}
			w[i] = float64(n)
		} else {
			w[i] = 1
		}
	}
	return &Evaluator{scheme: norm, weights: w}, nil
}

// MustNew is New that panics on error.
func MustNew(exampleCounts []int, scheme Scheme) *Evaluator {
	e, err := New(exampleCounts, scheme)
	if err != nil {
		panic(err)
	}
	return e
}

// Scheme returns the normalized scheme in effect.
func (e *Evaluator) Scheme() Scheme { return e.scheme }

// SampleSize returns |S| per evaluation call.
func (e *Evaluator) SampleSize() int { return e.scheme.Count }

// NumClients returns the validation pool size.
func (e *Evaluator) NumClients() int { return len(e.weights) }

// Result is one evaluation release.
type Result struct {
	// Observed is the released (noisy) error the tuner sees: subsampled,
	// possibly biased, possibly DP-perturbed (may fall outside [0, 1]).
	Observed float64
	// Sampled is the subsample aggregate before DP noise.
	Sampled float64
	// Subset holds the sampled client indices.
	Subset []int
}

// Evaluate produces one noisy evaluation of the per-client error vector
// errs. The caller provides the RNG stream; pass distinct streams for
// distinct evaluation calls to model independent evaluation rounds. Every
// call allocates its subset: this is the reference form, and EvaluateMulti
// is the reusable-scratch kernel pinned bit-identical to it.
func (e *Evaluator) Evaluate(errs []float64, g *rng.RNG) Result {
	if len(errs) != len(e.weights) {
		panic(fmt.Sprintf("eval: error vector length %d, want %d clients", len(errs), len(e.weights)))
	}
	subset := e.sampleSubset(errs, g)
	sampled := fl.WeightedError(errs, e.weights, subset)
	observed := sampled
	if e.scheme.DP.Private() {
		// Accuracy has sensitivity 1/|S|; error = 1 - accuracy has the same
		// sensitivity, so the Laplace release applies directly.
		observed = e.scheme.DP.Release(sampled, len(subset), g)
	}
	return Result{Observed: observed, Sampled: sampled, Subset: subset}
}

// FullError aggregates the whole pool with the scheme's weights and no
// noise. This is the paper's reporting metric ("full validation error").
func (e *Evaluator) FullError(errs []float64) float64 {
	if len(errs) != len(e.weights) {
		panic(fmt.Sprintf("eval: error vector length %d, want %d clients", len(errs), len(e.weights)))
	}
	return fl.WeightedError(errs, e.weights, nil)
}

// TailError returns the error at the q-th percentile of the per-client
// error distribution (q=0.9 → the level the worst 10% of clients exceed).
// The paper's §6 calls for examining tail performance alongside the average
// when heterogeneity corrupts evaluation; this is that metric.
func TailError(errs []float64, q float64) float64 {
	if len(errs) == 0 {
		panic("eval: TailError of empty vector")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("eval: tail quantile %g outside [0, 1]", q))
	}
	s := append([]float64(nil), errs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// WorstClientError returns the maximum per-client error (the 100th
// percentile tail).
func WorstClientError(errs []float64) float64 { return TailError(errs, 1) }

// sampleSubset draws |S| clients: uniformly when Bias == 0, otherwise with
// probability proportional to (accuracy + δ)^b — the paper's model of
// systems heterogeneity where well-performing (fast, well-connected) devices
// participate more often.
func (e *Evaluator) sampleSubset(errs []float64, g *rng.RNG) []int {
	n, k := len(errs), e.scheme.Count
	switch {
	case e.scheme.Bias != 0:
		return g.WeightedSampleWithoutReplacement(e.biasWeights(make([]float64, n), errs), k)
	case k >= n:
		// The full pool in index order: no randomness drawn.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	default:
		return g.SampleWithoutReplacement(n, k)
	}
}

// biasWeights writes to buf, the pool's length, the BiasWeight of every
// client of the row, and returns it.
func (e *Evaluator) biasWeights(buf, errs []float64) []float64 {
	for i, err := range errs {
		buf[i] = e.BiasWeight(err)
	}
	return buf
}

// BiasWeight is the sampling weight (accuracy + δ)^b of a client whose error
// rate is rate: the one weight function behind every biased cohort, so a
// caller that keeps weights per (client, wrong-count) keeps these bits.
func (e *Evaluator) BiasWeight(rate float64) float64 {
	acc := 1 - rate
	if acc < 0 {
		acc = 0
	}
	return math.Pow(acc+DefaultBiasDelta, e.scheme.Bias)
}

// grow returns b resized to length n, reallocating only on growth.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}
