package hpo

import (
	"math"
	"strconv"

	"noisyeval/internal/dp"
	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// shaParams configures one successive-halving bracket.
type shaParams struct {
	r0, maxR   int
	eta        int
	epsilon    float64
	totalRungs int // T across the whole run, for one-shot top-k calibration
	label      string
	noiseG     *rng.RNG // scratch the per-rung DP noise stream is split onto
}

// rungLadder returns the fidelity ladder {r0, r0·η, ..., maxR}.
func rungLadder(r0, maxR, eta int) []int {
	if r0 < 1 {
		r0 = 1
	}
	var out []int
	for r := r0; r < maxR; r *= eta {
		out = append(out, r)
	}
	return append(out, maxR)
}

// runSHA executes one SHA bracket (Li et al., 2017): train all survivors to
// each rung, evaluate them on a shared cohort, and keep the best
// max(⌊n/η⌋, 1) by (privately) noisy score. Under DP the paper's one-shot
// Laplace top-k mechanism (Qiao et al., 2021) perturbs each rung's scores
// with scale 2·T·k_t/(ε·|S|).
//
// Training cost is incremental (checkpoint reuse): advancing a survivor from
// rung r to rung r' charges r'−r rounds. The bracket truncates cleanly when
// the run's total budget cannot cover the next rung. onRung, when non-nil,
// receives each rung's noisy scores with the survivors' positions in cfgs
// (BOHB uses this to update its model). cfgs becomes the bracket's scratch:
// later rungs' survivors overwrite it.
func runSHA(o Oracle, cfgs []fl.HParams, p shaParams, totalBudget int, cum *int, h *History,
	g *rng.RNG, onRung func(fidelity int, alive []int, noisy []float64)) {

	if len(cfgs) == 0 {
		return
	}
	survivors := cfgs
	var alive []int
	if onRung != nil {
		alive = make([]int, len(cfgs))
		for i := range alive {
			alive[i] = i
		}
	}
	ladder := rungLadder(p.r0, p.maxR, p.eta)
	h.Grow(bracketObservations(len(cfgs), len(ladder), p.eta))
	// One score buffer and two survivor buffers (cfgs and spare, swapped at
	// every elimination) serve every rung: rungs only shrink, and a rung's
	// survivors are dead once the next rung's have been copied out of them.
	errs := make([]float64, len(cfgs))
	var spare []fl.HParams
	trained := 0
	for rung, r := range ladder {
		cost := (r - trained) * len(survivors)
		if *cum+cost > totalBudget {
			return // budget exhausted; the bracket truncates here
		}
		*cum += cost

		// Shared evaluation cohort for the rung (Figure 2 of the paper); the
		// survivors' evaluations are independent, so the rung is one batch.
		evalID := p.label + "-rung-" + strconv.Itoa(rung)
		errs = errs[:len(survivors)]
		batch := EvalBatch{Configs: survivors, SameRounds: r, SameEvalID: evalID, Out: errs}
		EvaluateAll(o, &batch)

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
			noiseG = p.noiseG
			g.SplitIntInto(noiseG, p.label+"-noise-", rung)
		}
		noisy := dp.OneShotNoisy(errs, scale, noiseG)

		for i, cfg := range survivors {
			h.Add(Observation{
				Config: cfg, Rounds: r, Observed: noisy[i],
				True: o.TrueError(cfg, r), CumRounds: *cum,
			})
		}
		if onRung != nil {
			onRung(r, alive, noisy)
		}
		if r >= p.maxR {
			return
		}
		keep := dp.BottomK(noisy, k)
		if cap(spare) < len(keep) {
			spare = make([]fl.HParams, len(keep))
		}
		next := spare[:len(keep)]
		for i, idx := range keep {
			next[i] = survivors[idx]
		}
		survivors, spare = next, survivors
		if onRung != nil {
			for i, idx := range keep {
				keep[i] = alive[idx] // keep is BottomK's fresh slice: it becomes the next alive
			}
			alive = keep
		}
		trained = r
	}
}

// bracketObservations returns how many observations a bracket of n
// configurations records over its rungs: n, then max(⌊n/η⌋, 1) per later rung.
func bracketObservations(n, rungs, eta int) int {
	total := 0
	for ; rungs > 0; rungs-- {
		total += n
		n = max(n/eta, 1)
	}
	return total
}

// SuccessiveHalving runs a single SHA bracket as a standalone method: N
// configurations starting from R0 rounds with elimination factor η.
type SuccessiveHalving struct {
	// N is the number of initial configurations (default: enough to fill
	// the total budget, η^(rungs-1) style — see normalize).
	N int
	// R0 is the minimum resource (default MaxPerConfig / η^4).
	R0 int
}

// Name implements Method.
func (SuccessiveHalving) Name() string { return "SHA" }

// Run implements Method.
func (sh SuccessiveHalving) Run(o Oracle, space Space, s Settings, g *rng.RNG) *History {
	s = s.Normalize()
	h := &History{MethodName: "SHA"}
	maxR := perConfigRounds(o, s)
	r0 := sh.R0
	if r0 < 1 {
		r0 = maxR / pow(s.Eta, 4)
		if r0 < 1 {
			r0 = 1
		}
	}
	n := sh.N
	if n < 1 {
		n = pow(s.Eta, len(rungLadder(r0, maxR, s.Eta))-1)
	}
	cfgs := make([]fl.HParams, n)
	gSub := rng.New(0)
	for i := range cfgs {
		g.SplitIntInto(gSub, "cfg-", i)
		cfgs[i] = sampleConfig(o, gSub)
	}
	p := shaParams{
		r0: r0, maxR: maxR, eta: s.Eta,
		epsilon:    s.Epsilon,
		totalRungs: len(rungLadder(r0, maxR, s.Eta)),
		label:      "sha",
		noiseG:     gSub,
	}
	cum := 0
	runSHA(o, cfgs, p, s.Budget.TotalRounds, &cum, h, g, nil)
	return h
}

// Hyperband (Li et al., 2017) wraps SHA in a sweep over exploration/
// exploitation trade-offs: bracket s runs SHA with n_s = ⌈(s_max+1)·η^s /
// (s+1)⌉ configurations from r0 = R/η^s. The paper uses 5 brackets with
// η = 3 and R = 405 rounds; brackets run until the 6480-round budget is
// exhausted.
type Hyperband struct{}

// Name implements Method.
func (Hyperband) Name() string { return "HB" }

// Run implements Method.
func (Hyperband) Run(o Oracle, space Space, s Settings, g *rng.RNG) *History {
	s = s.Normalize()
	h := &History{MethodName: "HB"}
	runHyperbandLoop(o, space, s, g, h, nil)
	return h
}

// bracketPlan describes one HB bracket.
type bracketPlan struct {
	s, n, r0 int
}

// hyperbandPlan returns the bracket schedule for the settings.
func hyperbandPlan(maxR int, s Settings) []bracketPlan {
	sMax := s.Brackets - 1
	var plans []bracketPlan
	for b := sMax; b >= 0; b-- {
		n := int(math.Ceil(float64(sMax+1) * math.Pow(float64(s.Eta), float64(b)) / float64(b+1)))
		r0 := maxR / pow(s.Eta, b)
		if r0 < 1 {
			r0 = 1
		}
		plans = append(plans, bracketPlan{s: b, n: n, r0: r0})
	}
	return plans
}

// runHyperbandLoop is shared by HB and BOHB; proposeFn, when non-nil,
// generates each bracket's configurations (BOHB's model-based sampling) and
// receives rung feedback through the returned observer.
func runHyperbandLoop(o Oracle, space Space, s Settings, g *rng.RNG, h *History,
	bohb *bohbState) {

	maxR := perConfigRounds(o, s)
	plans := hyperbandPlan(maxR, s)

	// Total rung count across all brackets calibrates one-shot top-k noise.
	// The brackets' observation counts are known here too: reserve the run's
	// history once, so that runSHA's per-bracket reservation never copies
	// what earlier brackets recorded.
	totalRungs, totalObs, maxN := 0, 0, 0
	for _, p := range plans {
		rungs := len(rungLadder(p.r0, maxR, s.Eta))
		totalRungs += rungs
		totalObs += bracketObservations(p.n, rungs, s.Eta)
		maxN = max(maxN, p.n)
	}
	h.Grow(totalObs)

	// One config buffer serves every bracket: runSHA uses its cfgs as scratch
	// and is done with them when it returns.
	cfgBuf := make([]fl.HParams, maxN)

	cum := 0
	gSub, gBracket := rng.New(0), rng.New(0)
	for bi, plan := range plans {
		var onRung func(int, []int, []float64)
		if bohb != nil {
			onRung = bohb.observe
			bohb.rows = bohb.rows[:0]
		}
		cfgs := cfgBuf[:plan.n]
		for i := range cfgs {
			g.SplitInt2Into(gSub, "bracket-", bi, "-cfg-", i)
			if bohb != nil {
				cfgs[i] = bohb.propose(gSub)
			} else {
				cfgs[i] = sampleConfig(o, gSub)
			}
		}
		p := shaParams{
			r0: plan.r0, maxR: maxR, eta: s.Eta,
			epsilon:    s.Epsilon,
			totalRungs: totalRungs,
			label:      "hb-bracket-" + strconv.Itoa(bi),
			noiseG:     gSub, // idle once the bracket's configs are drawn
		}
		before := cum
		g.SplitIntInto(gBracket, "bracket-", bi)
		runSHA(o, cfgs, p, s.Budget.TotalRounds, &cum, h, gBracket, onRung)
		if cum == before {
			return // no budget left for even the first rung
		}
	}
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}
