package eval

import (
	"fmt"

	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// MultiScratch holds the reusable state of an evaluation sweep: repeated
// EvaluateMulti calls through the same scratch allocate nothing once the
// buffers have grown to the largest pool seen, and one scratch may serve
// rows of different pool sizes in turn. A scratch belongs to one goroutine
// at a time (the block scheduler gives each worker its own; the bank oracle
// pools one per single ask). The zero value is ready to use.
type MultiScratch struct {
	g       *rng.RNG            // reseeded once per cohort
	results []Result            // returned slice, reused across calls
	idx     []int               // persistent identity permutation (uniform sampling)
	idxN    int                 // prefix of idx currently holding the identity
	undo    []int               // swap partners of the last partial shuffle (uniform)
	ws      rng.WeightedSampler // per-row sampler state over the bias weights (biased)
}

// ensureIdentity makes idx[:n] the identity permutation. The uniform path
// keeps this as an invariant between cohorts (swaps are undone after each
// draw), so the fill runs only when the pool size changes.
func (s *MultiScratch) ensureIdentity(n int) {
	s.idx = grow(s.idx, n)
	if s.idxN == n {
		return
	}
	for i := range s.idx[:n] {
		s.idx[i] = i
	}
	s.idxN = n
}

// EvaluateMulti walks one per-client error row once and produces the
// evaluation release for many independent cohorts, one per seed. Cohort c is
// bit-identical to
//
//	g := rng.New(seeds[c]); e.Evaluate(errs, g)
//
// each cohort's draws come from its own reseeded stream, so batching changes
// neither randomness consumption nor the released values. This is the one
// sampling kernel behind the bank oracle: a block-scheduler wave passes every
// cohort that shares a row, a single ask passes its one seed. The
// row-invariant work is hoisted out of the per-cohort loop: full-pool
// aggregates are computed once and shared (and draw no randomness), the
// weighted sampler is reset once per call on the prepared bias weights, and
// the uniform sampler reuses a persistent identity permutation with undo
// records instead of refilling a pool-sized buffer per cohort.
//
// The returned slice and any buffers it references are owned by the scratch
// and valid until its next use. Unlike Evaluate, Result.Subset is nil: the
// oracle only consumes the released scalars, and retaining per-cohort
// subsets would force a pool-sized allocation per cohort.
//
// Under a biased scheme, bias carries the row's weights prepared: bias.W[k]
// must be BiasWeight(errs[k]) and bias.Inv, bias.Margin what rng.PrepareWeight
// derives from it. The bank oracle keeps them per (client, wrong-count), so a
// row visit computes no weight a visit before it met: every bias weight of a
// row is one of Σ(n_k + 1) values. An unbiased scheme ignores bias.
func (e *Evaluator) EvaluateMulti(errs []float64, bias rng.Prepared, seeds []uint64, s *MultiScratch) []Result {
	if len(errs) != len(e.weights) {
		panic(fmt.Sprintf("eval: error vector length %d, want %d clients", len(errs), len(e.weights)))
	}
	if s == nil {
		s = &MultiScratch{}
	}
	if s.g == nil {
		s.g = rng.New(0)
	}
	if cap(s.results) < len(seeds) {
		s.results = make([]Result, len(seeds))
	}
	out := s.results[:len(seeds)]
	n := len(errs)
	k := e.scheme.Count
	private := e.scheme.DP.Private()
	switch {
	case k >= n && e.scheme.Bias == 0:
		// Full pool: the subset is the identity for every cohort and
		// sampling consumes no randomness, so the aggregate is shared.
		sampled := fl.WeightedError(errs, e.weights, nil)
		for c, seed := range seeds {
			observed := sampled
			if private {
				s.g.Reseed(seed)
				observed = e.scheme.DP.Release(sampled, n, s.g)
			}
			out[c] = Result{Observed: observed, Sampled: sampled}
		}
	case e.scheme.Bias == 0:
		s.ensureIdentity(n)
		s.undo = grow(s.undo, k)
		idx, undo := s.idx, s.undo
		for c, seed := range seeds {
			s.g.Reseed(seed)
			// Partial Fisher-Yates over the persistent identity: the same
			// swaps SampleWithoutReplacementInto performs on a fresh fill,
			// so idx[:k] matches the sequential subset draw exactly.
			for i := 0; i < k; i++ {
				j := i + s.g.IntN(n-i)
				undo[i] = j
				idx[i], idx[j] = idx[j], idx[i]
			}
			sampled := fl.WeightedError(errs, e.weights, idx[:k])
			observed := sampled
			if private {
				observed = e.scheme.DP.Release(sampled, k, s.g)
			}
			for i := k - 1; i >= 0; i-- {
				j := undo[i]
				idx[i], idx[j] = idx[j], idx[i]
			}
			out[c] = Result{Observed: observed, Sampled: sampled}
		}
	default:
		// Biased sampling: the (accuracy+δ)^b weights, and what the sampler
		// derives from them, depend on each client's error and not on the
		// cohort; for a bank row, on the client's wrong-count alone, so the
		// caller prepares them (the bank oracle from its (client, count)
		// table, one Pow per pair it meets).
		if len(bias.W) != n {
			panic(fmt.Sprintf("eval: %d prepared bias weights, want %d clients", len(bias.W), n))
		}
		s.ws.ResetPrepared(bias)
		for c, seed := range seeds {
			s.g.Reseed(seed)
			subset := s.ws.Sample(s.g, k)
			sampled := fl.WeightedError(errs, e.weights, subset)
			observed := sampled
			if private {
				observed = e.scheme.DP.Release(sampled, len(subset), s.g)
			}
			out[c] = Result{Observed: observed, Sampled: sampled}
		}
	}
	return out
}
