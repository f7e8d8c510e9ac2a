package hpo

import (
	"sync"

	"noisyeval/internal/dp"
	"noisyeval/internal/fl"
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
	cfgs  []fl.HParams
	out   []float64
	batch EvalBatch
}

var rsScratchPool = sync.Pool{New: func() any { return &rsScratch{gSub: rng.New(0)} }}

// Run implements Method.
func (RandomSearch) Run(o Oracle, space Space, s Settings, g *rng.RNG) *History {
	s = s.Normalize()
	h := &History{MethodName: "RS"}
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
	cfgs := sc.cfgs[:0]
	cum := 0
	for i := 0; i < k; i++ {
		if cum+maxR > s.Budget.TotalRounds {
			break
		}
		g.SplitIntInto(gSub, "cfg-", i)
		cfgs = append(cfgs, sampleConfig(o, gSub))
		cum += maxR
	}
	if cap(sc.out) < len(cfgs) {
		sc.out = make([]float64, len(cfgs))
	}
	sc.cfgs = cfgs
	batch := &sc.batch
	*batch = EvalBatch{Configs: cfgs, EvalIDs: rsEvalIDs.IDs(len(cfgs)), SameRounds: maxR, Out: sc.out[:len(cfgs)]}
	EvaluateAll(o, batch)
	cum = 0
	for i, cfg := range cfgs {
		cum += maxR
		observed := batch.Out[i]
		if dpp.Private() {
			// Split consumes no parent randomness and a non-private Release
			// is the identity, so skipping both off the private path leaves
			// every stream byte-identical.
			g.SplitIntInto(gSub, "dp-", i)
			observed = dpp.Release(observed, o.SampleSize(), gSub)
		}
		h.Add(Observation{
			Config:    cfg,
			Rounds:    maxR,
			Observed:  observed,
			True:      o.TrueError(cfg, maxR),
			CumRounds: cum,
		})
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
	h := &History{MethodName: "Grid"}
	maxR := perConfigRounds(o, s)

	grid := o.Pool()
	k := s.Budget.K
	h.Grow(minInt(k, len(grid)))
	dpp := dp.Params{Epsilon: s.Epsilon, TotalEvals: minInt(k, len(grid))}
	// Grid points are fixed upfront, so the whole walk is one batch (see
	// RandomSearch.Run for the bit-identity argument).
	m := 0
	cum := 0
	for i := 0; i < len(grid) && i < k; i++ {
		if cum+maxR > s.Budget.TotalRounds {
			break
		}
		cum += maxR
		m++
	}
	batch := EvalBatch{Configs: grid[:m], EvalIDs: gridEvalIDs.IDs(m), SameRounds: maxR, Out: make([]float64, m)}
	EvaluateAll(o, &batch)
	cum = 0
	gSub := rng.New(0)
	for i, cfg := range grid[:m] {
		cum += maxR
		observed := batch.Out[i]
		if dpp.Private() {
			g.SplitIntInto(gSub, "dp-", i)
			observed = dpp.Release(observed, o.SampleSize(), gSub)
		}
		h.Add(Observation{
			Config:    cfg,
			Rounds:    maxR,
			Observed:  observed,
			True:      o.TrueError(cfg, maxR),
			CumRounds: cum,
		})
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
