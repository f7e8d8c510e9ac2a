package hpo

import (
	"fmt"

	"noisyeval/internal/rng"
)

// OneShotProxyRS is the paper's proposed baseline (§4): run random search
// entirely on public server-side proxy data — where evaluation needs no
// client subsampling and no DP noise — and train only the single winning
// configuration on the client data. Because exactly one configuration
// touches the clients, the selection step is immune to every source of
// federated evaluation noise; quality depends only on how well
// hyperparameters transfer from the proxy task to the client task
// (Observations 7–8).
type OneShotProxyRS struct {
	// Proxy evaluates configurations on the proxy dataset. It should be
	// noise-free (full evaluation, no DP): the proxy data is public and
	// centralized.
	Proxy Oracle
}

// Name implements Method.
func (OneShotProxyRS) Name() string { return "ProxyRS" }

// Run implements Method. Proxy-side search consumes no client training
// rounds (it runs server-side on public data); the client-side training of
// the single chosen configuration is charged normally and produces one
// observation per checkpoint so that budget curves (Figure 12) can be drawn.
func (m OneShotProxyRS) Run(target Oracle, space Space, s Settings, g *rng.RNG) *History {
	if m.Proxy == nil {
		panic("hpo: OneShotProxyRS needs a proxy oracle")
	}
	s = s.Normalize()
	h := newHistory("ProxyRS", m.Proxy)

	// Step 1: plain RS on the proxy (noiseless, non-private by construction).
	// The K draws are iid, so they are one batch (see RandomSearch.Run).
	proxyMaxR := m.Proxy.MaxRounds()
	if pc := s.Budget.MaxPerConfig; pc < proxyMaxR {
		proxyMaxR = pc
	}
	sc := rsScratchPool.Get().(*rsScratch)
	gSub := sc.gSub
	idx := sc.idx[:0]
	for i := 0; i < s.Budget.K; i++ {
		g.SplitIntInto(gSub, "cfg-", i)
		idx = append(idx, sampleConfig(m.Proxy, gSub))
	}
	sc.idx = idx
	best, bestErr := 0, 0.0
	if len(idx) == 0 { // K = 0: the first draw wins unscored
		g.SplitIntInto(gSub, "cfg-", 0)
		best = sampleConfig(m.Proxy, gSub)
	}
	out, trueErr := sc.answers(len(idx))
	sc.batch = EvalBatch{Indices: idx, EvalIDs: proxyEvalIDs.IDs(len(idx)), SameRounds: proxyMaxR, Out: out, True: trueErr}
	EvaluateAll(m.Proxy, &sc.batch)
	for i, err := range out {
		if i == 0 || err < bestErr {
			best, bestErr = idx[i], err
		}
	}
	rsScratchPool.Put(sc)

	// Step 2: train the single winner on the client data, recording its true
	// error at every checkpoint up to the per-config budget.
	cfg := m.Proxy.Pool()[best]
	ti := poolIndex(target.Pool(), cfg)
	if ti < 0 {
		panic(fmt.Sprintf("hpo: OneShotProxyRS: proxy winner %+v is not in the target's pool", cfg))
	}
	maxR := perConfigRounds(target, s)
	rungs := RungRounds(maxR, s.Eta, 5)
	h.Grow(len(rungs))
	for _, r := range rungs {
		// The proxy method never consults client evaluations; Observed
		// carries the proxy-side score so RecommendAt stays meaningful.
		h.Add(best, r, bestErr, trueErrorAt(target, ti, r), r)
	}
	return h
}
