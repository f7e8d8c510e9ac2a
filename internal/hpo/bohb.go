package hpo

import (
	"noisyeval/internal/rng"
)

// BOHB (Falkner et al., 2018) replaces Hyperband's random config sampling
// with TPE proposals fit on the observations gathered so far, using the
// largest fidelity that has enough points; a fixed fraction of proposals
// stays random to preserve Hyperband's theoretical guarantees. The study
// finds BOHB is the strongest method under noiseless evaluation and among
// the weakest under noisy evaluation (Observation 6): its model is fit on
// exactly the noisy low-fidelity scores that subsampling and DP corrupt.
type BOHB struct {
	// RandomFraction of proposals bypass the model (default 1/3).
	RandomFraction float64
	// MinPoints is the number of observations a fidelity needs before the
	// model is used (default 6 = tuned dims + 1).
	MinPoints int
	// TPE configures the underlying proposal model.
	TPE TPE
}

// Name implements Method.
func (BOHB) Name() string { return "BOHB" }

// Run implements Method.
func (b BOHB) Run(o Oracle, space Space, s Settings, g *rng.RNG) *History {
	s = s.Normalize()
	if b.RandomFraction <= 0 || b.RandomFraction >= 1 {
		b.RandomFraction = 1.0 / 3
	}
	if b.MinPoints < 2 {
		b.MinPoints = 6
	}
	h := newHistory("BOHB", o)
	sc := hbScratchPool.Get().(*hbScratch)
	sc.bohb.reset(b, o, space)
	runHyperbandLoop(o, space, s, g, h, sc, &sc.bohb)
	hbScratchPool.Put(sc) // only after a run that returned; see RandomSearch.Run
	return h
}

// reset readies st for a run of b over o's pool, keeping every buffer an
// earlier run left: the model is rebuilt in its own tables, and observe
// refills the observation lists in place.
func (st *bohbState) reset(b BOHB, o Oracle, space Space) {
	if st.model == nil {
		st.model, st.gSub = new(parzenModel), rng.New(0)
	}
	st.model.reset(b.TPE.normalize(), o, space)
	st.cfg, st.levels, st.top, st.fitLevel, st.fitN, st.rows = b, st.levels[:0], -1, 0, 0, st.rows[:0]
}

// bohbState accumulates rung observations per fidelity and proposes configs.
type bohbState struct {
	cfg   BOHB
	model *parzenModel
	// levels holds one observation list per distinct fidelity, in first-seen
	// order; top is the level with the highest fidelity among those holding
	// at least MinPoints observations (BOHB's model-selection rule), or -1.
	// Lists only grow, so observe keeps top current without a rescan.
	levels []fidelityObs
	top    int
	// fitLevel and fitN name the observation set the model is fit on; the
	// model is refit only when a rung report changes the selected set.
	fitLevel, fitN int
	rows           []int    // feature row of each config of the current bracket
	gSub           *rng.RNG // scratch for the per-proposal sub-stream
}

type fidelityObs struct {
	fidelity int
	obs      []parzenObs
}

// observe records a rung's noisy scores (SHA callback); alive are the
// survivors' positions in the bracket.
func (st *bohbState) observe(fidelity int, alive []int, noisy []float64) {
	li := 0
	for li < len(st.levels) && st.levels[li].fidelity != fidelity {
		li++
	}
	if li == len(st.levels) {
		if li < cap(st.levels) { // reuse the list an earlier run left
			st.levels = st.levels[:li+1]
			st.levels[li] = fidelityObs{fidelity: fidelity, obs: st.levels[li].obs[:0]}
		} else {
			st.levels = append(st.levels, fidelityObs{fidelity: fidelity})
		}
	}
	lv := &st.levels[li]
	for i, pos := range alive {
		lv.obs = append(lv.obs, parzenObs{row: st.rows[pos], err: noisy[i]})
	}
	if len(lv.obs) >= st.cfg.MinPoints && (st.top < 0 || fidelity > st.levels[st.top].fidelity) {
		st.top = li
	}
}

// propose returns the next candidate's pool index and records it as a
// feature row: random with probability RandomFraction or when no fidelity
// has enough observations, otherwise a TPE proposal from the model of the
// highest adequately-observed fidelity.
func (st *bohbState) propose(g *rng.RNG) int {
	label := "tpe"
	if g.Bool(st.cfg.RandomFraction) {
		label = "random"
	} else if st.top < 0 {
		label = "fallback"
	}
	g.SplitInto(st.gSub, label)
	var ci int
	if label != "tpe" {
		ci = st.model.sample(st.gSub)
	} else {
		if obs := st.levels[st.top].obs; st.fitN != len(obs) || st.fitLevel != st.top {
			st.model.fit(obs)
			st.fitLevel, st.fitN = st.top, len(obs)
		}
		ci = st.model.propose(st.gSub)
	}
	st.rows = append(st.rows, ci)
	return ci
}
