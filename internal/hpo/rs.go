package hpo

import (
	"sync"

	"noisyeval/internal/dp"
	"noisyeval/internal/rng"
)

// RandomSearch is the classical baseline (Bergstra & Bengio, 2012;
// Algorithms 1–2 of the paper): sample K configurations iid, train each for
// the full per-config budget, evaluate once, and return the best by observed
// error. Under DP, each of the K releases is perturbed with
// Lap(K/(ε·|S|)) per basic composition.
type RandomSearch struct{}

// Name implements Method.
func (RandomSearch) Name() string { return "RS" }

// rsScratch is RandomSearch.Run's working set besides the History it
// returns: the per-draw RNG and the batch of sampled asks. Runs recycle it
// through rsScratchPool, so a trial allocates its History and little else.
type rsScratch struct {
	gSub  *rng.RNG // reseeded per draw; same streams as Splitf
	idx   []int
	out   []float64 // the batch's Out and True, one backing
	batch EvalBatch
}

var rsScratchPool = sync.Pool{New: func() any { return &rsScratch{gSub: rng.New(0)} }}

// answers returns sc's Out and True buffers sized to n asks.
func (sc *rsScratch) answers(n int) (out, trueErr []float64) {
	if cap(sc.out) < 2*n {
		sc.out = make([]float64, 2*n)
	}
	return sc.out[:n:n], sc.out[n : 2*n]
}

// Run implements Method.
func (RandomSearch) Run(o Oracle, space Space, s Settings, g *rng.RNG) *History {
	s = s.Normalize()
	h := newHistory("RS", o)
	maxR := perConfigRounds(o, s)
	k := s.Budget.K
	h.Grow(k)
	dpp := dp.Params{Epsilon: s.Epsilon, TotalEvals: k}
	sc := rsScratchPool.Get().(*rsScratch)
	gSub := sc.gSub
	// The K draws are iid — no draw depends on an earlier answer — so the
	// asks are sampled first (same per-i RNG streams as the historical
	// interleaved loop) and evaluated as one batch. Each answer is a pure
	// function of (config, rounds, evalID), so the history is bit-identical
	// to evaluating inside the sampling loop.
	idx := sc.idx[:0]
	cum := 0
	for i := 0; i < k; i++ {
		if cum+maxR > s.Budget.TotalRounds {
			break
		}
		g.SplitIntInto(gSub, "cfg-", i)
		idx = append(idx, sampleConfig(o, gSub))
		cum += maxR
	}
	sc.idx = idx
	out, trueErr := sc.answers(len(idx))
	batch := &sc.batch
	*batch = EvalBatch{Indices: idx, EvalIDs: rsEvalIDs.IDs(len(idx)), SameRounds: maxR, Out: out, True: trueErr}
	EvaluateAll(o, batch)
	cum = 0
	for i, ci := range idx {
		cum += maxR
		observed := out[i]
		if dpp.Private() {
			// Split consumes no parent randomness and a non-private Release
			// is the identity, so skipping both off the private path leaves
			// every stream byte-identical.
			g.SplitIntInto(gSub, "dp-", i)
			observed = dpp.Release(observed, o.SampleSize(), gSub)
		}
		h.Add(ci, maxR, observed, trueErr[i], cum)
	}
	// Back to the pool only after a run that returned: a run unwound
	// mid-batch (a closed EvalStream) may still have its Out slots named by
	// a consumer.
	rsScratchPool.Put(sc)
	return h
}

// GridSearch walks the oracle's pool in index order and evaluates members at
// full fidelity until K of them or the budget run out. The pool is an iid
// draw from the space, so this is random search without replacement in a
// fixed order.
type GridSearch struct{}

// Name implements Method.
func (GridSearch) Name() string { return "Grid" }

// Run implements Method.
func (GridSearch) Run(o Oracle, space Space, s Settings, g *rng.RNG) *History {
	s = s.Normalize()
	h := newHistory("Grid", o)
	maxR := perConfigRounds(o, s)

	n := len(o.Pool())
	k := s.Budget.K
	h.Grow(minInt(k, n))
	dpp := dp.Params{Epsilon: s.Epsilon, TotalEvals: minInt(k, n)}
	// Grid points are fixed upfront, so the whole walk is one batch (see
	// RandomSearch.Run for the bit-identity argument).
	var idx []int
	cum := 0
	for i := 0; i < n && i < k; i++ {
		if cum+maxR > s.Budget.TotalRounds {
			break
		}
		cum += maxR
		idx = append(idx, i)
	}
	m := len(idx)
	answers := make([]float64, 2*m)
	batch := EvalBatch{Indices: idx, EvalIDs: gridEvalIDs.IDs(m), SameRounds: maxR, Out: answers[:m], True: answers[m:]}
	EvaluateAll(o, &batch)
	cum = 0
	gSub := rng.New(0)
	for i, ci := range idx {
		cum += maxR
		observed := batch.Out[i]
		if dpp.Private() {
			g.SplitIntInto(gSub, "dp-", i)
			observed = dpp.Release(observed, o.SampleSize(), gSub)
		}
		h.Add(ci, maxR, observed, batch.True[i], cum)
	}
	return h
}

// perConfigRounds caps the per-config budget by the oracle's maximum.
func perConfigRounds(o Oracle, s Settings) int {
	maxR := s.Budget.MaxPerConfig
	if om := o.MaxRounds(); om > 0 && om < maxR {
		maxR = om
	}
	return maxR
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
