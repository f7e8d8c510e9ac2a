// Package dp implements the differential-privacy machinery the study uses to
// privatize hyperparameter evaluation (§3.3 of the paper):
//
//   - the Laplace mechanism for real-valued queries of bounded sensitivity,
//   - basic-composition budget accounting that splits a total ε across the M
//     evaluations (or T evaluation rounds) a tuning algorithm performs, and
//   - the one-shot Laplace mechanism for top-k selection (Qiao et al., 2021)
//     used by rung eliminations in SHA/Hyperband/BOHB.
//
// Evaluations in the study average client accuracies in [0, 1]; with |S|
// sampled clients a single client changes the average by at most 1/|S|, so
// the sensitivity is 1/|S| and each evaluation is perturbed with
// Lap(M/(ε·|S|)) under basic composition.
package dp

import (
	"fmt"
	"math"
	"sort"

	"noisyeval/internal/rng"
)

// InfEpsilon is the ε value meaning "no privacy" (no noise added).
var InfEpsilon = math.Inf(1)

// Params describes the privacy configuration of one tuning run.
type Params struct {
	// Epsilon is the total privacy budget ε for the entire tuning
	// procedure. +Inf disables noise.
	Epsilon float64
	// TotalEvals is M, the total number of evaluation releases the tuning
	// algorithm will perform; basic composition assigns ε/M to each.
	TotalEvals int
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Epsilon <= 0 {
		return fmt.Errorf("dp: epsilon must be positive (or +Inf), got %g", p.Epsilon)
	}
	if !math.IsInf(p.Epsilon, 1) && p.TotalEvals <= 0 {
		return fmt.Errorf("dp: TotalEvals must be positive under finite epsilon, got %d", p.TotalEvals)
	}
	return nil
}

// Private reports whether noise will actually be added.
func (p Params) Private() bool { return !math.IsInf(p.Epsilon, 1) }

// PerEvalEpsilon returns the budget allocated to a single evaluation under
// basic composition: ε/M.
func (p Params) PerEvalEpsilon() float64 {
	if !p.Private() {
		return InfEpsilon
	}
	return p.Epsilon / float64(p.TotalEvals)
}

// NoiseScale returns the Laplace scale for one evaluation over sampleSize
// clients: sensitivity/(ε/M) = M/(ε·|S|). A non-private configuration
// returns 0 (no noise).
func (p Params) NoiseScale(sampleSize int) float64 {
	if !p.Private() {
		return 0
	}
	if sampleSize <= 0 {
		panic(fmt.Sprintf("dp: sample size must be positive, got %d", sampleSize))
	}
	sensitivity := 1 / float64(sampleSize)
	return sensitivity / p.PerEvalEpsilon()
}

// LaplaceScale returns the Laplace scale Δ/ε for a query of the given
// sensitivity under budget epsilon.
func LaplaceScale(sensitivity, epsilon float64) float64 {
	if sensitivity < 0 {
		panic(fmt.Sprintf("dp: negative sensitivity %g", sensitivity))
	}
	if epsilon <= 0 {
		panic(fmt.Sprintf("dp: epsilon must be positive, got %g", epsilon))
	}
	if math.IsInf(epsilon, 1) {
		return 0
	}
	return sensitivity / epsilon
}

// Release perturbs value with Laplace noise calibrated for one evaluation
// over sampleSize clients. The returned value is NOT clamped: the paper's
// mechanism releases the raw noisy statistic (selection among configs only
// needs relative order; clamping would leak information about the true
// value's proximity to the boundary).
func (p Params) Release(value float64, sampleSize int, g *rng.RNG) float64 {
	scale := p.NoiseScale(sampleSize)
	if scale == 0 {
		return value
	}
	return g.Laplace(value, scale)
}

// OneShotNoisy returns a copy of values with iid Laplace noise of the given
// scale added to each entry (scale 0 returns a plain copy). It is the noise
// step of the one-shot top-k mechanism, exposed separately so that callers
// can both select on and record the noisy scores.
func OneShotNoisy(values []float64, scale float64, g *rng.RNG) []float64 {
	return OneShotNoisyInto(make([]float64, len(values)), values, scale, g)
}

// OneShotNoisyInto is OneShotNoisy writing into dst[:len(values)], which it
// returns; dst must not overlap values.
func OneShotNoisyInto(dst, values []float64, scale float64, g *rng.RNG) []float64 {
	if scale < 0 {
		panic(fmt.Sprintf("dp: OneShotNoisy negative scale %g", scale))
	}
	out := dst[:len(values)]
	for i, v := range values {
		if scale == 0 {
			out[i] = v
		} else {
			out[i] = g.Laplace(v, scale)
		}
	}
	return out
}

// BottomK returns the indices of the k smallest values in ascending order
// of value (ties broken by index). Used to keep the k best (lowest-error)
// configurations from noisy scores.
func BottomK(values []float64, k int) []int {
	if k < 0 || k > len(values) {
		panic(fmt.Sprintf("dp: BottomK k=%d out of range [0, %d]", k, len(values)))
	}
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if values[idx[a]] != values[idx[b]] {
			return values[idx[a]] < values[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:k]
}

// OneShotTopK privately selects the indices of the k largest values using
// the one-shot Laplace mechanism (Qiao et al., 2021): add iid Laplace noise
// of the given scale to every value, then release the identities of the top
// k noisy values. The paper applies it at each evaluation round t of an
// elimination-based tuner with scale 2·T·k_t/(ε·|S|).
//
// The returned indices are ordered by decreasing noisy value. values is not
// modified.
func OneShotTopK(values []float64, k int, scale float64, g *rng.RNG) []int {
	if k < 0 || k > len(values) {
		panic(fmt.Sprintf("dp: OneShotTopK k=%d out of range [0, %d]", k, len(values)))
	}
	if scale < 0 {
		panic(fmt.Sprintf("dp: OneShotTopK negative scale %g", scale))
	}
	type scored struct {
		noisy float64
		idx   int
	}
	s := make([]scored, len(values))
	for i, v := range values {
		noisy := v
		if scale > 0 {
			noisy = g.Laplace(v, scale)
		}
		s[i] = scored{noisy: noisy, idx: i}
	}
	sort.Slice(s, func(i, j int) bool {
		if s[i].noisy != s[j].noisy {
			return s[i].noisy > s[j].noisy
		}
		return s[i].idx < s[j].idx // deterministic tie-break
	})
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = s[i].idx
	}
	return out
}

// TopKScale returns the one-shot top-k noise scale 2·T·k/(ε·|S|) for an
// algorithm with T evaluation rounds selecting k of the candidates from
// sampleSize clients per evaluation under total budget ε. Infinite ε gives
// scale 0.
func TopKScale(totalRounds, k, sampleSize int, epsilon float64) float64 {
	if math.IsInf(epsilon, 1) {
		return 0
	}
	if totalRounds <= 0 || k <= 0 || sampleSize <= 0 {
		panic(fmt.Sprintf("dp: TopKScale needs positive arguments, got T=%d k=%d |S|=%d", totalRounds, k, sampleSize))
	}
	if epsilon <= 0 {
		panic(fmt.Sprintf("dp: epsilon must be positive, got %g", epsilon))
	}
	return 2 * float64(totalRounds) * float64(k) / (epsilon * float64(sampleSize))
}

// Clamp01 clips a noisy statistic back to [0, 1] for reporting purposes
// (never for selection).
func Clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}
