package hpo

import (
	"math"
	"sort"
	"strconv"
	"sync"

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
	noiseG     *rng.RNG    // scratch the per-rung DP noise stream is split onto
	sc         *shaScratch // the run's rung buffers; nil allocates them
}

// rungLadder returns the fidelity ladder {r0, r0·η, ..., maxR}.
func rungLadder(r0, maxR, eta int) []int { return appendRungLadder(nil, r0, maxR, eta) }

func appendRungLadder(dst []int, r0, maxR, eta int) []int {
	if r0 < 1 {
		r0 = 1
	}
	for r := r0; r < maxR; r *= eta {
		dst = append(dst, r)
	}
	return append(dst, maxR)
}

// shaNames are a bracket's interned strings: the prefix of its rungs' DP
// noise streams and its rungs' cohort IDs, "<label>-rung-<rung>".
type shaNames struct {
	noise string
	rungs *IDCache
}

func newSHANames(label string) *shaNames {
	return &shaNames{noise: label + "-noise-", rungs: NewIDCache(label + "-rung-")}
}

// hbLabels[bi] is Hyperband bracket bi's label for the first sixteen
// brackets (the paper runs five), and shaLabelNames holds the names of those
// labels and of standalone SHA's, so that a rung builds no string. Both are
// read-only after init.
var hbLabels, shaLabelNames = func() ([]string, map[string]*shaNames) {
	labels, names := make([]string, 16), map[string]*shaNames{"sha": newSHANames("sha")}
	for bi := range labels {
		labels[bi] = "hb-bracket-" + strconv.Itoa(bi)
		names[labels[bi]] = newSHANames(labels[bi])
	}
	return labels, names
}()

func hbLabel(bi int) string {
	if bi < len(hbLabels) {
		return hbLabels[bi]
	}
	return "hb-bracket-" + strconv.Itoa(bi)
}

func namesOf(label string) *shaNames {
	if n, ok := shaLabelNames[label]; ok {
		return n
	}
	return newSHANames(label)
}

// shaScratch is runSHA's working set. Every rung's slices — scores, noisy
// scores, the spare survivor buffer, the survivors' positions and the
// selection order — are views of one float, one config and one int backing
// per run, sized by reserve to the run's largest bracket: rungs only shrink,
// and a rung's buffers are dead once the next rung's have been copied out.
// It lives in an hbScratch, which runs recycle.
type shaScratch struct {
	ladder            []int
	errs, noisy       []float64
	spare             []fl.HParams
	alive, spareAlive []int
	order             rungOrder
	batch             EvalBatch
}

// reserve sizes the buffers for brackets of up to n configurations.
func (sc *shaScratch) reserve(n int) {
	if cap(sc.errs) >= n {
		return
	}
	floats, ints := make([]float64, 2*n), make([]int, 3*n)
	sc.errs, sc.noisy = floats[:n:n], floats[n:]
	sc.alive, sc.spareAlive, sc.order.idx = ints[:n:n], ints[n:2*n:2*n], ints[2*n:]
	sc.spare = make([]fl.HParams, n)
}

// rungOrder sorts a rung's positions by noisy score, then by position: the
// comparison dp.BottomK hands sort.Slice. sort.Sort runs the same pdqsort
// over it, comparison for comparison, so ties, ±Inf and NaNs land where
// BottomK puts them.
type rungOrder struct {
	idx []int
	v   []float64
}

func (o *rungOrder) Len() int { return len(o.idx) }
func (o *rungOrder) Less(a, b int) bool {
	if va, vb := o.v[o.idx[a]], o.v[o.idx[b]]; va != vb {
		return va < vb
	}
	return o.idx[a] < o.idx[b]
}
func (o *rungOrder) Swap(a, b int) { o.idx[a], o.idx[b] = o.idx[b], o.idx[a] }

// bottomK returns dp.BottomK(v, k) in the order's buffer, which must hold
// len(v) positions; the result is valid until the next call. Without a NaN
// the (score, position) order is total and its k smallest, ascending, are
// unique: insertion into k slots in position order finds them. A NaN
// compares neither way, and only BottomK's own pdqsort puts it where
// BottomK does.
func (o *rungOrder) bottomK(v []float64, k int) []int {
	for _, x := range v {
		if x != x {
			o.v, o.idx = v, o.idx[:len(v)]
			for i := range o.idx {
				o.idx[i] = i
			}
			sort.Sort(o)
			return o.idx[:k]
		}
	}
	top := o.idx[:0]
	for i, x := range v {
		if len(top) == k {
			if k == 0 || !(x < v[top[k-1]]) {
				continue // an equal score loses to the earlier position
			}
			top = top[:k-1]
		}
		j := len(top)
		top = append(top, i)
		for ; j > 0 && x < v[top[j-1]]; j-- {
			top[j] = top[j-1]
		}
		top[j] = i
	}
	return top
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
// (BOHB uses this to update its model); both are valid for the call only.
// cfgs becomes the bracket's scratch: later rungs' survivors overwrite it.
func runSHA(o Oracle, cfgs []fl.HParams, p shaParams, totalBudget int, cum *int, h *History,
	g *rng.RNG, onRung func(fidelity int, alive []int, noisy []float64)) {

	if len(cfgs) == 0 {
		return
	}
	sc := p.sc
	if sc == nil {
		sc = new(shaScratch)
	}
	sc.reserve(len(cfgs))
	names := namesOf(p.label)
	survivors, spare := cfgs, sc.spare
	alive, spareAlive := sc.alive[:len(cfgs)], sc.spareAlive
	for i := range alive {
		alive[i] = i
	}
	sc.ladder = appendRungLadder(sc.ladder[:0], p.r0, p.maxR, p.eta)
	h.Grow(bracketObservations(len(cfgs), len(sc.ladder), p.eta))
	trained := 0
	for rung, r := range sc.ladder {
		cost := (r - trained) * len(survivors)
		if *cum+cost > totalBudget {
			return // budget exhausted; the bracket truncates here
		}
		*cum += cost

		// Shared evaluation cohort for the rung (Figure 2 of the paper); the
		// survivors' evaluations are independent, so the rung is one batch.
		errs := sc.errs[:len(survivors)]
		sc.batch = EvalBatch{Configs: survivors, SameRounds: r, SameEvalID: names.rungs.ID(rung), Out: errs}
		EvaluateAll(o, &sc.batch)

		// Keep count for this rung's selection.
		k := len(survivors) / p.eta
		if k < 1 || r >= p.maxR {
			k = 1
		}
		// At scale 0 the noisy scores are the scores: OneShotNoisy would copy
		// them. Otherwise the split is derived only now that noise is drawn:
		// Split consumes no parent randomness, so the non-private stream is
		// unchanged.
		noisy := errs
		if scale := dp.TopKScale(p.totalRungs, k, o.SampleSize(), p.epsilon); scale > 0 {
			g.SplitIntInto(p.noiseG, names.noise, rung)
			noisy = dp.OneShotNoisyInto(sc.noisy, errs, scale, p.noiseG)
		}

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
		keep := sc.order.bottomK(noisy, k)
		next, nextAlive := spare[:k], spareAlive[:k]
		for i, idx := range keep {
			next[i], nextAlive[i] = survivors[idx], alive[idx]
		}
		survivors, spare = next, survivors
		alive, spareAlive = nextAlive, alive
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
	sc := hbScratchPool.Get().(*hbScratch)
	sc.cfgs = resize(sc.cfgs, n)
	cfgs, gSub := sc.cfgs, sc.gSub
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
		sc:         &sc.sha,
	}
	cum := 0
	runSHA(o, cfgs, p, s.Budget.TotalRounds, &cum, h, g, nil)
	hbScratchPool.Put(sc) // only after a run that returned; see RandomSearch.Run
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
	sc := hbScratchPool.Get().(*hbScratch)
	runHyperbandLoop(o, space, s, g, h, sc, nil)
	hbScratchPool.Put(sc) // only after a run that returned; see RandomSearch.Run
	return h
}

// hbScratch is a Hyperband or BOHB run's working set besides the History it
// returns: the bracket plan, one config buffer for every bracket, the two
// sub-stream RNGs, runSHA's buffers and BOHB's proposal state. Runs recycle
// it through hbScratchPool, so a warm trial allocates its History and
// little else.
type hbScratch struct {
	plans          []bracketPlan
	cfgs           []fl.HParams
	gSub, gBracket *rng.RNG
	sha            shaScratch
	bohb           bohbState
}

var hbScratchPool = sync.Pool{New: func() any { return &hbScratch{gSub: rng.New(0), gBracket: rng.New(0)} }}

// bracketPlan describes one HB bracket.
type bracketPlan struct {
	s, n, r0 int
}

// hyperbandPlan returns the bracket schedule for the settings.
func hyperbandPlan(maxR int, s Settings) []bracketPlan { return appendHyperbandPlan(nil, maxR, s) }

func appendHyperbandPlan(plans []bracketPlan, maxR int, s Settings) []bracketPlan {
	sMax := s.Brackets - 1
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

// runHyperbandLoop is shared by HB and BOHB; bohb, when non-nil, generates
// each bracket's configurations (BOHB's model-based sampling) and receives
// rung feedback. sc is the run's scratch.
func runHyperbandLoop(o Oracle, space Space, s Settings, g *rng.RNG, h *History,
	sc *hbScratch, bohb *bohbState) {

	maxR := perConfigRounds(o, s)
	sc.plans = appendHyperbandPlan(sc.plans[:0], maxR, s)

	// Total rung count across all brackets calibrates one-shot top-k noise.
	// The brackets' observation counts are known here too: reserve the run's
	// history once, so that runSHA's per-bracket reservation never copies
	// what earlier brackets recorded.
	totalRungs, totalObs, maxN := 0, 0, 0
	for _, p := range sc.plans {
		sc.sha.ladder = appendRungLadder(sc.sha.ladder[:0], p.r0, maxR, s.Eta)
		rungs := len(sc.sha.ladder)
		totalRungs += rungs
		totalObs += bracketObservations(p.n, rungs, s.Eta)
		maxN = max(maxN, p.n)
	}
	h.Grow(totalObs)

	// One config buffer serves every bracket: runSHA uses its cfgs as scratch
	// and is done with them when it returns.
	sc.cfgs = resize(sc.cfgs, maxN)
	sc.sha.reserve(maxN)

	cum := 0
	gSub, gBracket := sc.gSub, sc.gBracket
	for bi, plan := range sc.plans {
		var onRung func(int, []int, []float64)
		if bohb != nil {
			onRung = bohb.observe
			bohb.rows = bohb.rows[:0]
		}
		cfgs := sc.cfgs[:plan.n]
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
			label:      hbLabel(bi),
			noiseG:     gSub, // idle once the bracket's configs are drawn
			sc:         &sc.sha,
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
