package hpo

import (
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
	h := &History{MethodName: "ProxyRS"}

	// Step 1: plain RS on the proxy (noiseless, non-private by construction).
	proxyMaxR := m.Proxy.MaxRounds()
	if pc := s.Budget.MaxPerConfig; pc < proxyMaxR {
		proxyMaxR = pc
	}
	sc := rsScratchPool.Get().(*rsScratch) // for its per-draw RNG
	gSub := sc.gSub
	g.SplitIntInto(gSub, "cfg-", 0)
	best, bestErr := sampleConfig(m.Proxy, gSub), 0.0
	for i := 0; i < s.Budget.K; i++ {
		g.SplitIntInto(gSub, "cfg-", i)
		cfg := sampleConfig(m.Proxy, gSub)
		err := m.Proxy.Evaluate(cfg, proxyMaxR, proxyEvalIDs.ID(i))
		if i == 0 || err < bestErr {
			best, bestErr = cfg, err
		}
	}
	rsScratchPool.Put(sc)

	// Step 2: train the single winner on the client data, recording its true
	// error at every checkpoint up to the per-config budget.
	maxR := perConfigRounds(target, s)
	cum := 0
	for _, r := range RungRounds(maxR, s.Eta, 5) {
		cum = r
		h.Add(Observation{
			Config: best, Rounds: r,
			// The proxy method never consults client evaluations; Observed
			// carries the proxy-side score so RecommendAt stays meaningful.
			Observed:  bestErr,
			True:      target.TrueError(best, r),
			CumRounds: cum,
		})
	}
	return h
}
