package hpo

// The refit-per-proposal TPE/BOHB this package shipped before the Parzen
// engine (DESIGN.md §15), kept verbatim — identifiers prefixed ref/Reference,
// the continuous-mode arms removed with that mode, nothing else changed — as
// the oracle TestProposeMatchesReference compares the engine against. It shares only helpers the engine left untouched
// (configVec, spaceBounds, batchIndex, catKDE, stddev, sampleConfig, the
// bracket plan). Do not optimise it: its value is that it is the old code.

import (
	"math"
	"sort"
	"strconv"

	"noisyeval/internal/dp"
	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// ReferenceTPE is TPE with the per-proposal refit.
type ReferenceTPE TPE

// Name implements Method.
func (ReferenceTPE) Name() string { return "TPE" }

// ReferenceBOHB is BOHB with the per-proposal refit and the map-keyed
// fidelity store.
type ReferenceBOHB BOHB

// Name implements Method.
func (ReferenceBOHB) Name() string { return "BOHB" }

// refAdd records an observation of cfg as the methods did when they
// reported configs by value: the true error through TrueError, the config
// through its position in the pool.
func refAdd(h *History, o Oracle, cfg fl.HParams, rounds int, observed float64, cum int) {
	h.Add(poolIndex(o.Pool(), cfg), rounds, observed, o.TrueError(cfg, rounds), cum)
}

// Run implements Method.
func (t ReferenceTPE) Run(o Oracle, space Space, s Settings, g *rng.RNG) *History {
	s = s.Normalize()
	t = ReferenceTPE(TPE(t).normalize())
	h := newHistory("TPE", o)
	maxR := perConfigRounds(o, s)
	k := s.Budget.K
	h.Grow(k)
	dpp := dp.Params{Epsilon: s.Epsilon, TotalEvals: k}

	gSub := rng.New(0) // reseeded per iteration; same streams as Splitf
	var observed []refScoredConfig
	cum := 0
	for i := 0; i < k; i++ {
		if cum+maxR > s.Budget.TotalRounds {
			break
		}
		var cfg fl.HParams
		if i < t.NStartup || len(observed) < t.NStartup {
			g.SplitIntInto(gSub, "startup-", i)
			cfg = o.Pool()[sampleConfig(o, gSub)]
		} else {
			g.SplitIntInto(gSub, "propose-", i)
			cfg = t.propose(observed, o, space, gSub)
		}
		cum += maxR
		obs := o.Evaluate(cfg, maxR, tpeEvalIDs.ID(i))
		if dpp.Private() {
			obs = dpp.Release(obs, o.SampleSize(), g.Splitf("dp-%d", i))
		}
		refAdd(h, o, cfg, maxR, obs, cum)
		observed = append(observed, refScoredConfig{cfg: cfg, err: obs})
	}
	return h
}

type refScoredConfig struct {
	cfg fl.HParams
	err float64
}

// propose builds ℓ and g densities from the observations and returns the
// candidate with the highest ℓ/g among NCandidates draws from the pool.
func (t ReferenceTPE) propose(obs []refScoredConfig, o Oracle, space Space, g *rng.RNG) fl.HParams {
	sorted := append([]refScoredConfig(nil), obs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].err < sorted[j].err })
	nGood := int(t.Gamma * float64(len(sorted)))
	if nGood < 1 {
		nGood = 1
	}
	good := newRefParzen(space, refConfigsOf(sorted[:nGood]))
	bad := newRefParzen(space, refConfigsOf(sorted[nGood:]))

	var candidates []fl.HParams
	pool := o.Pool()
	for i := 0; i < t.NCandidates; i++ {
		candidates = append(candidates, pool[g.IntN(len(pool))])
	}
	best := candidates[0]
	bestScore := math.Inf(-1)
	for _, c := range candidates {
		score := good.logDensity(c) - bad.logDensity(c)
		if score > bestScore {
			bestScore = score
			best = c
		}
	}
	return best
}

func refConfigsOf(sc []refScoredConfig) []fl.HParams {
	out := make([]fl.HParams, len(sc))
	for i, s := range sc {
		out[i] = s.cfg
	}
	return out
}

// refParzen is the per-dimension kernel density model of one TPE side. The
// five continuous dimensions (log server lr, β1, β2, log client lr,
// momentum) use Gaussian kernels mixed with a uniform prior; batch size
// uses a smoothed categorical.
type refParzen struct {
	space Space
	dims  [5]refKDE1d
	batch catKDE
}

func newRefParzen(space Space, configs []fl.HParams) *refParzen {
	n := len(configs)
	cols := make([][]float64, 5)
	for d := range cols {
		cols[d] = make([]float64, n)
	}
	batchCounts := make([]float64, len(space.BatchSizes))
	for i, c := range configs {
		v := configVec(c)
		for d := 0; d < 5; d++ {
			cols[d][i] = v[d]
		}
		batchCounts[batchIndex(space, c.BatchSize)]++
	}
	lo, hi := spaceBounds(space)
	p := &refParzen{space: space}
	for d := 0; d < 5; d++ {
		p.dims[d] = newRefKDE(cols[d], lo[d], hi[d])
	}
	p.batch = catKDE{counts: batchCounts}
	return p
}

// logDensity returns the model's log density at the configuration.
func (p *refParzen) logDensity(c fl.HParams) float64 {
	v := configVec(c)
	sum := 0.0
	for d := 0; d < 5; d++ {
		sum += p.dims[d].logDensity(v[d])
	}
	sum += math.Log(p.batch.prob(batchIndex(p.space, c.BatchSize)))
	return sum
}

// refKDE1d is a 1-D Gaussian kernel density with a uniform prior component over
// [lo, hi], following the Parzen construction of Bergstra et al. (2011).
type refKDE1d struct {
	lo, hi  float64
	centers []float64
	bw      float64
}

func newRefKDE(values []float64, lo, hi float64) refKDE1d {
	k := refKDE1d{lo: lo, hi: hi, centers: values}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	n := float64(len(values))
	if n == 0 {
		k.bw = span
		return k
	}
	// Scott's rule with floors to keep densities proper on tiny samples.
	sd := stddev(values)
	bw := 1.06 * sd * math.Pow(n, -0.2)
	if bw < span/50 {
		bw = span / 50
	}
	if bw > span {
		bw = span
	}
	k.bw = bw
	return k
}

// logDensity mixes the uniform prior with the kernels:
// p(x) = (prior + Σ_i N(x; c_i, bw)) / (n + 1).
func (k refKDE1d) logDensity(x float64) float64 {
	span := k.hi - k.lo
	if span <= 0 {
		span = 1
	}
	// The uniform prior is supported only on [lo, hi].
	prior := 0.0
	if x >= k.lo && x <= k.hi {
		prior = 1 / span
	}
	sum := prior
	for _, c := range k.centers {
		z := (x - c) / k.bw
		sum += math.Exp(-0.5*z*z) / (k.bw * math.Sqrt(2*math.Pi))
	}
	return math.Log(sum / float64(len(k.centers)+1))
}

// Run implements Method.
func (b ReferenceBOHB) Run(o Oracle, space Space, s Settings, g *rng.RNG) *History {
	s = s.Normalize()
	if b.RandomFraction <= 0 || b.RandomFraction >= 1 {
		b.RandomFraction = 1.0 / 3
	}
	if b.MinPoints < 2 {
		b.MinPoints = 6
	}
	h := newHistory("BOHB", o)
	state := &refBohbState{cfg: BOHB(b), tpe: ReferenceTPE(b.TPE.normalize()), byFidelity: map[int][]refScoredConfig{}}
	refRunHyperbandLoop(o, space, s, g, h, state)
	return h
}

// refBohbState accumulates rung observations per fidelity and proposes configs.
type refBohbState struct {
	cfg        BOHB
	tpe        ReferenceTPE
	byFidelity map[int][]refScoredConfig
}

// observe records a rung's noisy scores (SHA callback).
func (st *refBohbState) observe(fidelity int, cfgs []fl.HParams, noisy []float64) {
	for i, c := range cfgs {
		st.byFidelity[fidelity] = append(st.byFidelity[fidelity], refScoredConfig{cfg: c, err: noisy[i]})
	}
}

// propose returns the next candidate: random with probability
// RandomFraction or when no fidelity has enough observations, otherwise a
// TPE proposal fit on the highest adequately-observed fidelity.
func (st *refBohbState) propose(o Oracle, space Space, g *rng.RNG) fl.HParams {
	if g.Bool(st.cfg.RandomFraction) {
		return o.Pool()[sampleConfig(o, g.Split("random"))]
	}
	obs := st.modelObservations()
	if len(obs) < st.cfg.MinPoints {
		return o.Pool()[sampleConfig(o, g.Split("fallback"))]
	}
	return st.tpe.propose(obs, o, space, g.Split("tpe"))
}

// modelObservations returns the observations at the largest fidelity with at
// least MinPoints of them (BOHB's model-selection rule).
func (st *refBohbState) modelObservations() []refScoredConfig {
	fidelities := make([]int, 0, len(st.byFidelity))
	for f := range st.byFidelity {
		fidelities = append(fidelities, f)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(fidelities)))
	for _, f := range fidelities {
		if len(st.byFidelity[f]) >= st.cfg.MinPoints {
			return st.byFidelity[f]
		}
	}
	return nil
}

// refRunSHA executes one SHA bracket (Li et al., 2017): train all survivors to
// each rung, evaluate them on a shared cohort, and keep the best
// max(⌊n/η⌋, 1) by (privately) noisy score. Under DP the paper's one-shot
// Laplace top-k mechanism (Qiao et al., 2021) perturbs each rung's scores
// with scale 2·T·k_t/(ε·|S|).
//
// Training cost is incremental (checkpoint reuse): advancing a survivor from
// rung r to rung r' charges r'−r rounds. The bracket truncates cleanly when
// the run's total budget cannot cover the next rung. onRung, when non-nil,
// receives each rung's noisy scores (BOHB uses this to update its model).
func refRunSHA(o Oracle, cfgs []fl.HParams, p shaParams, totalBudget int, cum *int, h *History,
	g *rng.RNG, onRung func(fidelity int, cfgs []fl.HParams, noisy []float64)) {

	survivors := append([]fl.HParams(nil), cfgs...)
	trained := 0
	for rung, r := range rungLadder(p.r0, p.maxR, p.eta) {
		if len(survivors) == 0 {
			return
		}
		cost := (r - trained) * len(survivors)
		if *cum+cost > totalBudget {
			return // budget exhausted; the bracket truncates here
		}
		*cum += cost

		// Shared evaluation cohort for the rung (Figure 2 of the paper); the
		// survivors' evaluations are independent, so the rung is one batch.
		evalID := p.label + "-rung-" + strconv.Itoa(rung)
		errs := make([]float64, len(survivors))
		for i, cfg := range survivors {
			errs[i] = o.Evaluate(cfg, r, evalID)
		}

		// Keep count for this rung's selection.
		k := len(survivors) / p.eta
		if k < 1 || r >= p.maxR {
			k = 1
		}
		scale := dp.TopKScale(p.totalRungs, k, o.SampleSize(), p.epsilon)
		var noiseG *rng.RNG
		if scale > 0 {
			// The split is only derived when noise is actually drawn: Split
			// consumes no parent randomness and OneShotNoisy at scale 0 never
			// touches its RNG, so the non-private stream is unchanged.
			noiseG = g.Splitf("%s-noise-%d", p.label, rung)
		}
		noisy := dp.OneShotNoisy(errs, scale, noiseG)

		h.Grow(len(survivors))
		for i, cfg := range survivors {
			refAdd(h, o, cfg, r, noisy[i], *cum)
		}
		if onRung != nil {
			onRung(r, survivors, noisy)
		}
		if r >= p.maxR {
			return
		}
		keep := dp.BottomK(noisy, k)
		next := make([]fl.HParams, len(keep))
		for i, idx := range keep {
			next[i] = survivors[idx]
		}
		survivors = next
		trained = r
	}
}

// refRunHyperbandLoop is shared by HB and BOHB; proposeFn, when non-nil,
// generates each bracket's configurations (BOHB's model-based sampling) and
// receives rung feedback through the returned observer.
func refRunHyperbandLoop(o Oracle, space Space, s Settings, g *rng.RNG, h *History,
	bohb *refBohbState) {

	maxR := perConfigRounds(o, s)
	plans := hyperbandPlan(maxR, s)

	// Total rung count across all brackets calibrates one-shot top-k noise.
	totalRungs := 0
	for _, p := range plans {
		totalRungs += len(rungLadder(p.r0, maxR, s.Eta))
	}

	cum := 0
	gSub := rng.New(0)
	for bi, plan := range plans {
		cfgs := make([]fl.HParams, plan.n)
		for i := range cfgs {
			g.SplitInt2Into(gSub, "bracket-", bi, "-cfg-", i)
			if bohb != nil {
				cfgs[i] = bohb.propose(o, space, gSub)
			} else {
				cfgs[i] = o.Pool()[sampleConfig(o, gSub)]
			}
		}
		var onRung func(int, []fl.HParams, []float64)
		if bohb != nil {
			onRung = bohb.observe
		}
		p := shaParams{
			r0: plan.r0, maxR: maxR, eta: s.Eta,
			epsilon:    s.Epsilon,
			totalRungs: totalRungs,
			label:      "hb-bracket-" + strconv.Itoa(bi),
		}
		before := cum
		refRunSHA(o, cfgs, p, s.Budget.TotalRounds, &cum, h, g.Splitf("bracket-%d", bi), onRung)
		if cum == before {
			return // no budget left for even the first rung
		}
	}
}
