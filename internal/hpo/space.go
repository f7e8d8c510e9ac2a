// Package hpo implements the hyperparameter tuning methods compared in the
// study: random search and grid search (classical baselines), the
// tree-structured Parzen estimator (TPE; Bergstra et al., 2011), successive
// halving and Hyperband (Li et al., 2017), BOHB (Falkner et al., 2018), and
// the paper's one-shot proxy random search. Methods run against an Oracle
// (a pre-trained config bank), propose only members of its non-empty pool,
// and privatize their releases per §3.3 of the paper.
package hpo

import (
	"fmt"
	"math"

	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// Space is the hyperparameter search space of Appendix B. Learning rates are
// log-uniform; moments and momentum are uniform; batch size is categorical.
// LRDecay, WeightDecay, and Epochs are fixed (not searched).
type Space struct {
	ServerLRMin, ServerLRMax float64 // log-uniform, default [1e-6, 1e-1]
	Beta1Min, Beta1Max       float64 // uniform, default [0, 0.9]
	Beta2Min, Beta2Max       float64 // uniform, default [0, 0.999]
	ClientLRMin, ClientLRMax float64 // log-uniform, default [1e-6, 1]
	MomentumMin, MomentumMax float64 // uniform, default [0, 0.9]
	BatchSizes               []int   // default {32, 64, 128}

	LRDecay     float64 // fixed 0.9999
	WeightDecay float64 // fixed 5e-5
	Epochs      int     // fixed 1
}

// DefaultSpace returns the paper's search space (Appendix B).
func DefaultSpace() Space {
	return Space{
		ServerLRMin: 1e-6, ServerLRMax: 1e-1,
		Beta1Min: 0, Beta1Max: 0.9,
		Beta2Min: 0, Beta2Max: 0.999,
		ClientLRMin: 1e-6, ClientLRMax: 1,
		MomentumMin: 0, MomentumMax: 0.9,
		BatchSizes:  []int{32, 64, 128},
		LRDecay:     0.9999,
		WeightDecay: 5e-5,
		Epochs:      1,
	}
}

// WithServerLRDecades returns a copy whose server-lr range is the nested
// interval of the Appendix C (Figure 13) search-space-width experiment:
// [10^(-4-d/2), 10^(-4+d/2)] for d decades, matching the paper's endpoints
// (d=1 gives [1e-4.5, 1e-3.5]; d=4 gives [1e-6, 1e-2]).
func (s Space) WithServerLRDecades(decades float64) Space {
	if decades <= 0 {
		panic(fmt.Sprintf("hpo: decades must be positive, got %g", decades))
	}
	center := -4.0
	s.ServerLRMin = math.Pow(10, center-decades/2)
	s.ServerLRMax = math.Pow(10, center+decades/2)
	return s
}

// Validate checks bounds.
func (s Space) Validate() error {
	if s.ServerLRMin <= 0 || s.ServerLRMax <= s.ServerLRMin {
		return fmt.Errorf("hpo: server lr range [%g, %g] invalid", s.ServerLRMin, s.ServerLRMax)
	}
	if s.ClientLRMin <= 0 || s.ClientLRMax <= s.ClientLRMin {
		return fmt.Errorf("hpo: client lr range [%g, %g] invalid", s.ClientLRMin, s.ClientLRMax)
	}
	if s.Beta1Min < 0 || s.Beta1Max >= 1 || s.Beta1Max < s.Beta1Min {
		return fmt.Errorf("hpo: beta1 range [%g, %g] invalid", s.Beta1Min, s.Beta1Max)
	}
	if s.Beta2Min < 0 || s.Beta2Max >= 1 || s.Beta2Max < s.Beta2Min {
		return fmt.Errorf("hpo: beta2 range [%g, %g] invalid", s.Beta2Min, s.Beta2Max)
	}
	if s.MomentumMin < 0 || s.MomentumMax >= 1 || s.MomentumMax < s.MomentumMin {
		return fmt.Errorf("hpo: momentum range [%g, %g] invalid", s.MomentumMin, s.MomentumMax)
	}
	if len(s.BatchSizes) == 0 {
		return fmt.Errorf("hpo: no batch sizes")
	}
	for _, b := range s.BatchSizes {
		if b < 1 {
			return fmt.Errorf("hpo: batch size %d invalid", b)
		}
	}
	return nil
}

// Sample draws one configuration uniformly from the space (log-uniform for
// learning rates) — the generator of the pools banks train.
func (s Space) Sample(g *rng.RNG) fl.HParams {
	return fl.HParams{
		ServerLR:       g.LogUniform(s.ServerLRMin, s.ServerLRMax),
		Beta1:          g.Uniform(s.Beta1Min, s.Beta1Max),
		Beta2:          g.Uniform(s.Beta2Min, s.Beta2Max),
		LRDecay:        s.LRDecay,
		ClientLR:       g.LogUniform(s.ClientLRMin, s.ClientLRMax),
		ClientMomentum: g.Uniform(s.MomentumMin, s.MomentumMax),
		WeightDecay:    s.WeightDecay,
		BatchSize:      s.BatchSizes[g.IntN(len(s.BatchSizes))],
		Epochs:         s.Epochs,
	}
}

// SampleN draws n iid configurations.
func (s Space) SampleN(n int, g *rng.RNG) []fl.HParams {
	out := make([]fl.HParams, n)
	for i := range out {
		out[i] = s.Sample(g.Splitf("sample-%d", i))
	}
	return out
}

// Contains reports whether h lies inside the space's tuned-parameter ranges.
func (s Space) Contains(h fl.HParams) bool {
	if h.ServerLR < s.ServerLRMin || h.ServerLR > s.ServerLRMax {
		return false
	}
	if h.ClientLR < s.ClientLRMin || h.ClientLR > s.ClientLRMax {
		return false
	}
	if h.Beta1 < s.Beta1Min || h.Beta1 > s.Beta1Max {
		return false
	}
	if h.Beta2 < s.Beta2Min || h.Beta2 > s.Beta2Max {
		return false
	}
	if h.ClientMomentum < s.MomentumMin || h.ClientMomentum > s.MomentumMax {
		return false
	}
	for _, b := range s.BatchSizes {
		if h.BatchSize == b {
			return true
		}
	}
	return false
}
