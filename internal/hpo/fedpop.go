package hpo

import (
	"math"

	"noisyeval/internal/dp"
	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// FedPop is population-based federated hyperparameter tuning in the spirit
// of FedPop (Chen et al., 2023): a fixed population of configurations trains
// along a fidelity ladder, and after every rung the worst members are
// replaced by perturbed copies of surviving members (exploit + explore,
// Jaderberg et al.'s PBT adapted to the bank protocol). Replaced members
// restart training from round 0, which the budget accounting charges in
// full, so FedPop trades mid-run exploration against the retraining cost —
// exactly the trade-off the noisy-evaluation study stresses, since each
// generation's culling decision is made on a noisy (and under DP, privately
// released) cohort evaluation.
//
// Every perturbed configuration snaps to its nearest pool member
// (NearestConfig), keeping the method inside the pre-trained pool.
type FedPop struct {
	// Population is the number of concurrently trained members (default 8).
	Population int
	// SurviveFrac is the fraction of members kept each generation; the rest
	// are replaced by perturbed survivors (default 0.5).
	SurviveFrac float64
	// Perturb scales the exploration jitter: learning rates move by a factor
	// of up to 10^±Perturb, linear parameters by ±Perturb of their range, and
	// the batch size resamples with probability Perturb (default 0.25).
	Perturb float64
	// R0 is the first-generation fidelity (default MaxPerConfig / η²).
	R0 int
}

// Name implements Method.
func (FedPop) Name() string { return "FedPop" }

// Run implements Method.
func (fp FedPop) Run(o Oracle, space Space, s Settings, g *rng.RNG) *History {
	s = s.Normalize()
	h := &History{MethodName: "FedPop"}
	maxR := perConfigRounds(o, s)

	pop := fp.Population
	if pop < 2 {
		pop = 8
	}
	surviveFrac := fp.SurviveFrac
	if surviveFrac <= 0 || surviveFrac >= 1 {
		surviveFrac = 0.5
	}
	perturb := fp.Perturb
	if perturb <= 0 {
		perturb = 0.25
	}
	r0 := fp.R0
	if r0 < 1 {
		r0 = maxR / (s.Eta * s.Eta)
		if r0 < 1 {
			r0 = 1
		}
	}

	ladder := rungLadder(r0, maxR, s.Eta)
	keep := int(float64(pop) * surviveFrac)
	if keep < 1 {
		keep = 1
	}
	if keep >= pop {
		keep = pop - 1
	}

	members := make([]fl.HParams, pop)
	trained := make([]int, pop) // rounds already trained per member
	gSub := rng.New(0)
	for i := range members {
		g.SplitIntInto(gSub, "member-", i)
		members[i] = sampleConfig(o, gSub)
	}

	cum := 0
	for gen, r := range ladder {
		// Advance every member to this generation's fidelity. Replaced
		// members retrain from scratch, so their cost is the full r.
		cost := 0
		for _, t := range trained {
			cost += r - t
		}
		if cum+cost > s.Budget.TotalRounds {
			break // budget exhausted; the run truncates at the last generation
		}
		cum += cost
		for i := range trained {
			trained[i] = r
		}

		// Shared evaluation cohort per generation (Figure 2 of the paper);
		// under DP the one-shot top-k mechanism calibrates to the ladder
		// length like a single SHA bracket.
		evalID := fedpopGenIDs.ID(gen)
		errs := make([]float64, pop)
		batch := EvalBatch{Configs: members, SameRounds: r, SameEvalID: evalID, Out: errs}
		EvaluateAll(o, &batch)
		scale := dp.TopKScale(len(ladder), keep, o.SampleSize(), s.Epsilon)
		var noiseG *rng.RNG
		if scale > 0 {
			noiseG = g.Splitf("noise-%d", gen)
		}
		noisy := dp.OneShotNoisy(errs, scale, noiseG)

		h.Grow(pop)
		for i, cfg := range members {
			h.Add(Observation{
				Config: cfg, Rounds: r, Observed: noisy[i],
				True: o.TrueError(cfg, r), CumRounds: cum,
			})
		}
		if gen == len(ladder)-1 {
			break
		}

		// Exploit + explore: members outside the noisy top-keep copy a random
		// elite member and jitter it.
		elite := dp.BottomK(noisy, keep)
		isElite := make(map[int]bool, keep)
		for _, idx := range elite {
			isElite[idx] = true
		}
		gg := g.Splitf("evolve-%d", gen)
		for i := range members {
			if isElite[i] {
				continue
			}
			parent := members[elite[gg.Splitf("parent-%d", i).IntN(len(elite))]]
			members[i] = fp.perturbConfig(parent, space, o.Pool(), perturb, gg.Splitf("perturb-%d", i))
			trained[i] = 0
		}
	}
	return h
}

// perturbConfig jitters one parent configuration inside the space, then
// snaps the child to the nearest pool member so the oracle can serve it from
// pre-trained checkpoints.
func (FedPop) perturbConfig(parent fl.HParams, space Space, pool []fl.HParams, perturb float64, g *rng.RNG) fl.HParams {
	c := parent
	logJitter := func(v, lo, hi float64, g *rng.RNG) float64 {
		v *= math.Pow(10, g.Uniform(-perturb, perturb))
		return math.Min(math.Max(v, lo), hi)
	}
	linJitter := func(v, lo, hi float64, g *rng.RNG) float64 {
		v += g.Uniform(-perturb, perturb) * (hi - lo)
		return math.Min(math.Max(v, lo), hi)
	}
	c.ServerLR = logJitter(c.ServerLR, space.ServerLRMin, space.ServerLRMax, g.Split("slr"))
	c.ClientLR = logJitter(c.ClientLR, space.ClientLRMin, space.ClientLRMax, g.Split("clr"))
	c.Beta1 = linJitter(c.Beta1, space.Beta1Min, space.Beta1Max, g.Split("b1"))
	c.Beta2 = linJitter(c.Beta2, space.Beta2Min, space.Beta2Max, g.Split("b2"))
	c.ClientMomentum = linJitter(c.ClientMomentum, space.MomentumMin, space.MomentumMax, g.Split("mom"))
	if len(space.BatchSizes) > 0 && g.Split("bs").Bool(perturb) {
		c.BatchSize = space.BatchSizes[g.Split("bs-pick").IntN(len(space.BatchSizes))]
	}
	return pool[NearestConfig(pool, c, space)]
}

// NearestConfig returns the index of the pool member closest to h under a
// normalized per-parameter distance: learning rates compare in log space
// scaled by the space's log-range, linear parameters by their range, and a
// batch-size mismatch costs one full unit. Ties break to the lowest index,
// so snapping is deterministic. This is the pool-snapping rule shared by
// FedPop's explore step and the session API's tell-by-config path
// (DESIGN.md §10).
func NearestConfig(pool []fl.HParams, h fl.HParams, space Space) int {
	if len(pool) == 0 {
		panic("hpo: NearestConfig on empty pool")
	}
	logDist := func(a, b, lo, hi float64) float64 {
		span := math.Log(hi) - math.Log(lo)
		if !(span > 0) || a <= 0 || b <= 0 {
			if a == b {
				return 0
			}
			return 1
		}
		return math.Abs(math.Log(a)-math.Log(b)) / span
	}
	linDist := func(a, b, lo, hi float64) float64 {
		span := hi - lo
		if !(span > 0) {
			if a == b {
				return 0
			}
			return 1
		}
		return math.Abs(a-b) / span
	}
	dist := func(c fl.HParams) float64 {
		d := logDist(c.ServerLR, h.ServerLR, space.ServerLRMin, space.ServerLRMax)
		d += logDist(c.ClientLR, h.ClientLR, space.ClientLRMin, space.ClientLRMax)
		d += linDist(c.Beta1, h.Beta1, space.Beta1Min, space.Beta1Max)
		d += linDist(c.Beta2, h.Beta2, space.Beta2Min, space.Beta2Max)
		d += linDist(c.ClientMomentum, h.ClientMomentum, space.MomentumMin, space.MomentumMax)
		if c.BatchSize != h.BatchSize {
			d++
		}
		return d
	}
	best, bestD := 0, math.Inf(1)
	for i, c := range pool {
		if d := dist(c); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
