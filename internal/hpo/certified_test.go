package hpo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"strconv"
	"testing"

	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// proposeRegimes are the observation sets the bank-mode proposal is pinned
// on: what a run produces (random errors), what breaks an argmax that is not
// the old loop (errors all equal, so the stable sort alone splits ℓ from g;
// NaN errors; sides whose centres collapse to one point, so the bandwidth
// sits on its lower clamp) and a pool whose rows repeat at different indices,
// where the first draw must win the tie.
var proposeRegimes = []struct {
	name    string
	dupPool bool
	obs     func(g *rng.RNG, n, pool int) []parzenObs
}{
	{"random", false, randomObs},
	{"equal", false, func(g *rng.RNG, n, pool int) []parzenObs {
		obs := make([]parzenObs, n)
		for i := range obs {
			obs[i] = parzenObs{row: g.IntN(pool), err: 0.5}
		}
		return obs
	}},
	{"nan", false, func(g *rng.RNG, n, pool int) []parzenObs {
		obs := randomObs(g, n, pool)
		for i := 1; i < n; i += 3 {
			obs[i].err = math.NaN()
		}
		return obs
	}},
	{"onecentre", false, func(g *rng.RNG, n, pool int) []parzenObs {
		// Every observation but the first is the same pool member.
		obs := make([]parzenObs, n)
		r0, r1 := g.IntN(pool), g.IntN(pool)
		for i := range obs {
			obs[i] = parzenObs{row: r0, err: g.Float64()}
		}
		obs[0].row = r1
		return obs
	}},
	{"duppool", true, randomObs},
}

func randomObs(g *rng.RNG, n, pool int) []parzenObs {
	obs := make([]parzenObs, n)
	for i := range obs {
		obs[i] = parzenObs{row: g.IntN(pool), err: g.Float64()}
	}
	return obs
}

// proposeGoldenNs are the pinned observation counts: every size from the
// first model proposal (NStartup = 4) to 15, where nGood steps from 1 to 3,
// and three larger sets.
var proposeGoldenNs = []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 27, 60, 120}

// proposePool samples a pool of n configs; with dup, its rows repeat with
// period n/4, so equal feature rows sit at different indices.
func proposePool(space Space, n int, dup bool, g *rng.RNG) []fl.HParams {
	pool := space.SampleN(n, g)
	if dup {
		for i := range pool {
			pool[i] = pool[i%(n/4)]
		}
	}
	return pool
}

// TestProposeGolden pins the bank-mode proposal — the pool index chosen and
// the position of the stream afterwards — to a hash recorded on the loop that
// scored every drawn candidate with logDensity. TPE drives the model
// directly (fit, then propose); BOHB drives it through bohbState, whose
// random and fallback branches and rung-triggered refits are in the hash too.
// TestProposeMatchesReference compares whole runs; this pins single
// proposals on observation sets no run of its produces.
func TestProposeGolden(t *testing.T) {
	const want = "ed213fa5c08ba4495c6b380a9d5e88468bee099ef834563456f37b59ada30dad"
	space := DefaultSpace()
	tpe := TPE{}.normalize()
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for _, poolN := range []int{16, 48, 64, 128} {
		for ri, regime := range proposeRegimes {
			for seed := uint64(1); seed <= 8; seed++ {
				g := rng.New(seed).Splitf("golden-%d-%d", poolN, ri)
				o := newTestOracle(0)
				o.pool = proposePool(space, poolN, regime.dupPool, g.Split("pool"))
				for _, n := range proposeGoldenNs {
					obs := regime.obs(g.Splitf("obs-%d", n), n, poolN)

					m := newParzenModel(tpe, o, space)
					m.fit(obs)
					draw := g.Splitf("tpe-%d", n)
					for rep := 0; rep < 3; rep++ {
						_, row := m.propose(draw)
						put(uint64(row))
					}
					put(draw.Uint64())

					st := &bohbState{cfg: BOHB{RandomFraction: 1.0 / 3, MinPoints: 6},
						model: newParzenModel(tpe, o, space), top: -1, gSub: rng.New(0)}
					alive, errs := make([]int, n), make([]float64, n)
					for i, ob := range obs {
						st.rows = append(st.rows, ob.row)
						alive[i], errs[i] = i, ob.err
					}
					bohbPropose := func(label string, reps int) {
						for rep := 0; rep < reps; rep++ {
							st.propose(g.Splitf("%s-%d-%d", label, n, rep))
							put(uint64(st.rows[len(st.rows)-1]))
							put(st.gSub.Uint64())
						}
					}
					st.observe(5, alive, errs)
					bohbPropose("bohb", 3)
					st.observe(15, alive[:n/2], errs[n/2:]) // a higher fidelity: refit once it holds MinPoints
					bohbPropose("bohb-15", 2)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("propose golden = %s, want %s", got, want)
	}
}

// ratioErr is the relative error approxRatio promises (DESIGN.md §19).
const ratioErr = 1e-6

// selectDraws is the selection loop of propose as it stood before contenders
// existed, over any table of scores: the first draw wins ties and non-finite
// scores.
func selectDraws(draws []int, score []float64) int {
	best, bestScore := -1, math.Inf(-1)
	for _, c := range draws {
		if best < 0 {
			best = c
		}
		if score[c] > bestScore {
			best, bestScore = c, score[c]
		}
	}
	return best
}

// proposePaths counts how proposals were decided: by the approximation alone
// (no Exp, no Log), by exact scores among the contenders it left (contenders
// is their total), or by the all-exact loop.
type proposePaths struct{ certified, contended, exact, contenders int }

// record classifies the proposal m has just made over m.draws; contenders
// reads the memo the proposal filled, so asking again changes nothing.
func (p *proposePaths) record(m *parzenModel) {
	switch floor, only := m.contenders(); {
	case only >= 0:
		p.certified++
	case floor > 0:
		p.contended++
		seen := map[int]bool{}
		for _, c := range m.draws {
			if m.memo[c].ratio >= floor && !seen[c] {
				seen[c] = true
				p.contenders++
			}
		}
	default:
		p.exact++
	}
}

// proposeCase is one pool with an engine model over it and the paths its
// checked proposals took.
type proposeCase struct {
	tpe   TPE
	space Space
	pool  []fl.HParams
	m     *parzenModel
	paths proposePaths
}

func newProposeCase(space Space, pool []fl.HParams) *proposeCase {
	o := newTestOracle(0)
	o.pool = pool
	tpe := TPE{}.normalize()
	return &proposeCase{tpe: tpe, space: space, pool: pool, m: newParzenModel(tpe, o, space)}
}

// fit fits the engine on obs and returns ℓ−g of every pool member under the
// reference model of the same observations.
func (pc *proposeCase) fit(obs []parzenObs) []float64 {
	pc.m.fit(obs)
	ref := make([]refScoredConfig, len(obs))
	for i, ob := range obs {
		ref[i] = refScoredConfig{cfg: pc.pool[ob.row], err: ob.err}
	}
	return refScores(pc.tpe, ref, pc.space, pc.pool)
}

// check holds the engine's argmax over draws to the old selection loop over
// want and to itself through the Go loop (checkLanes), and records which
// path decided.
func (pc *proposeCase) check(t *testing.T, name string, want []float64, draws []int) {
	t.Helper()
	m := pc.m
	m.draws = append(m.draws[:0], draws...)
	if got, w := m.argmax(), selectDraws(draws, want); got != w {
		t.Fatalf("%s: engine chose pool member %d (score %v), the selection loop %d (score %v)\ndraws %v",
			name, got, want[got], w, want[w], draws)
	}
	pc.paths.record(m)
	pc.checkLanes(t, name)
}

// checkLanes holds the proposal check has just made — its ratios computed
// through the AVX2 kernel, on a CPU that has it — to the same proposal
// through the Go loop: with lanes off and the memo invalidated as a refit
// would (the fit itself is kept: some cases edit it by hand), every draw's
// ratio must be the same to the bit (tighter than the §19 bound the
// certificate needs) and the argmax the same pool member. The memo is
// invalidated again afterwards, so later checks of the same fit compute
// their ratios through the kernel too.
func (pc *proposeCase) checkLanes(t *testing.T, name string) {
	t.Helper()
	m := pc.m
	got := m.argmax() // memoised by check: nothing is recomputed
	ratios := make([]float64, len(m.draws))
	for i, c := range m.draws {
		ratios[i] = m.memo[c].ratio
	}
	m.lanes = false
	m.gen++
	want := m.argmax()
	port := make([]float64, len(m.draws))
	for i, c := range m.draws {
		port[i] = m.memo[c].ratio
	}
	m.lanes = useLanes
	m.gen++
	if got != want {
		t.Fatalf("%s: with lanes the engine chose pool member %d, through the Go loop %d", name, got, want)
	}
	if !m.sound {
		return // no ratio was computed
	}
	for i, c := range m.draws {
		if math.Float64bits(ratios[i]) != math.Float64bits(port[i]) {
			t.Fatalf("%s: draw %d (pool member %d): ratio %v with lanes, %v through the Go loop",
				name, i, c, ratios[i], port[i])
		}
	}
}

func randomDraws(g *rng.RNG, n, pool int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = g.IntN(pool)
	}
	return out
}

// exactScores is ℓ−g of every pool member through the model's own
// logDensity: the oracle for models no reference fit can produce.
func exactScores(m *parzenModel) []float64 {
	out := make([]float64, len(m.pool))
	for c := range out {
		out[c] = m.good.logDensity(&m.rows[c]) - m.bad.logDensity(&m.rows[c])
	}
	return out
}

// TestProposeCertifiedAdversarial feeds the certified argmax what sampled
// pools never contain: members a few ulps to 1e-7 apart (their ratios sit
// inside the margin, so the exact scores must decide, in draw order), members
// on either side of an edge of the exp table (where the approximation's error
// jumps), bit-equal rows at different indices, coordinates on the bounds of
// the space, a member outside it, bandwidths on both clamps, and factors of
// ℓ/g at the range guard.
func TestProposeCertifiedAdversarial(t *testing.T) {
	space := DefaultSpace()
	g := rng.New(17)
	ns := []int{4, 5, 7, 8, 12, 15, 27, 60}

	t.Run("near duplicates", func(t *testing.T) {
		// Eight base configs, each with copies moved by 0 (a tie), one ulp and
		// 1e-15 … 1e-7 in three coordinates.
		var pool []fl.HParams
		for _, base := range space.SampleN(8, g.Split("near")) {
			for _, d := range []float64{0, 0x1p-53, 1e-15, 1e-13, 1e-11, 1e-9, 1e-8, 1e-7} {
				c := base
				c.ServerLR *= 1 + d
				c.Beta1 *= 1 - d
				c.ClientMomentum *= 1 - d
				pool = append(pool, c)
			}
		}
		pc := newProposeCase(space, pool)
		for rep := 0; rep < 40; rep++ {
			for _, n := range ns {
				want := pc.fit(randomObs(g, n, len(pool)))
				pc.check(t, "random draws", want, randomDraws(g, 24, len(pool)))
				// One family of near-copies, in both draw orders.
				fam := 8 * g.IntN(8)
				draws := []int{fam + 7, fam + 3, fam, fam + 1, fam + 5, fam + 2, fam + 6, fam + 4}
				pc.check(t, "one family", want, draws)
				slices.Reverse(draws)
				pc.check(t, "one family, reversed", want, draws)
			}
		}
		t.Logf("%+v", pc.paths)
		if pc.paths.contended < 500 {
			t.Errorf("only %d proposals were decided among contenders: %+v", pc.paths.contended, pc.paths)
		}
	})

	t.Run("table edges", func(t *testing.T) {
		// For a fitted ℓ with few centres, place two candidates a hair either
		// side of the β1 at which a kernel's exponent crosses a table entry: the
		// approximation's error jumps there by its full size while the true
		// ratio moves by 1e-12.
		base := space.SampleN(16, g.Split("edges"))
		edgy := 0
		for rep := 0; rep < 60; rep++ {
			n := ns[rep%4]
			obs := randomObs(g, n, len(base))
			probe := newProposeCase(space, base)
			probe.fit(obs)
			k := &probe.m.good.dims[1]
			pool := append([]fl.HParams(nil), base...)
			for _, ob := range obs {
				for _, i := range []float64{1, 2, 3, 9, 32, 200} {
					for _, sign := range []float64{-1, 1} {
						x := probe.m.rows[ob.row].v[1] + sign*math.Sqrt(i)/k.scale
						if x < space.Beta1Min+1e-9 || x > space.Beta1Max-1e-9 {
							continue
						}
						lo, hi := base[ob.row], base[ob.row]
						lo.Beta1, hi.Beta1 = x*(1-1e-12), x*(1+1e-12)
						pool = append(pool, lo, hi)
					}
				}
			}
			pc := newProposeCase(space, pool)
			want := pc.fit(obs)
			for a := len(base); a+1 < len(pool); a += 2 {
				pc.check(t, "edge pair", want, []int{a, a + 1})
				pc.check(t, "edge pair, reversed", want, []int{a + 1, a})
				pc.check(t, "edge pair among others", want, append(randomDraws(g, 6, len(base)), a+1, a))
			}
			edgy += pc.paths.contended
		}
		t.Logf("%d edge proposals decided among contenders", edgy)
		if edgy < 500 {
			t.Errorf("only %d edge proposals were decided among contenders", edgy)
		}
	})

	t.Run("ties, bounds and outsiders", func(t *testing.T) {
		pool := proposePool(space, 32, true, g.Split("ties")) // rows repeat with period 8
		onBounds := func(c fl.HParams, hi bool) fl.HParams {
			c.ServerLR, c.Beta1, c.Beta2, c.ClientLR, c.ClientMomentum =
				space.ServerLRMin, space.Beta1Min, space.Beta2Min, space.ClientLRMin, space.MomentumMin
			if hi {
				c.ServerLR, c.Beta1, c.Beta2, c.ClientLR, c.ClientMomentum =
					space.ServerLRMax, space.Beta1Max, space.Beta2Max, space.ClientLRMax, space.MomentumMax
			}
			return c
		}
		pool[8], pool[9] = onBounds(pool[8], false), onBounds(pool[9], true)
		outside := len(pool)
		out := pool[3]
		out.Beta1 = space.Beta1Max + 0.05 // prior 0 in one dimension
		pool = append(pool, out)
		pc := newProposeCase(space, pool)
		outsiderDrawn := 0
		for rep := 0; rep < 60; rep++ {
			for _, n := range ns {
				obs := proposeRegimes[rep%3].obs(g, n, len(pool))
				obs[0].row, obs[1].row = 8, 9 // centres on lo and on hi
				want := pc.fit(obs)
				draws := randomDraws(g, 24, outside) // never the outsider
				pc.check(t, "duplicated rows", want, draws)
				before := pc.paths.exact
				draws[g.IntN(len(draws))] = outside
				pc.check(t, "a draw outside the space", want, draws)
				outsiderDrawn += pc.paths.exact - before
			}
		}
		t.Logf("%+v", pc.paths)
		if pc.paths.certified == 0 || pc.paths.contended == 0 || outsiderDrawn != 60*len(ns) {
			t.Errorf("paths %+v; %d of %d proposals with an outside draw took the all-exact loop",
				pc.paths, outsiderDrawn, 60*len(ns))
		}
	})

	t.Run("bandwidth clamps", func(t *testing.T) {
		// The method searches one decade of server lr over a pool drawn from
		// five: observed centres far outside make sd exceed the span (bw = span),
		// a set of one repeated member makes it 0 (bw = span/50). Draws are the
		// members inside the narrow space, so the approximation is in play.
		narrow := space.WithServerLRDecades(1)
		pool := space.SampleN(96, g.Split("clamps"))
		var inside, outsideLR []int
		for i, c := range pool {
			if narrow.Contains(c) {
				inside = append(inside, i)
			} else {
				outsideLR = append(outsideLR, i)
			}
		}
		pc := newProposeCase(narrow, pool)
		atSpan, atFloor := 0, 0
		for rep := 0; rep < 200; rep++ {
			n := ns[rep%len(ns)]
			obs := make([]parzenObs, n)
			for i := range obs {
				obs[i] = parzenObs{row: outsideLR[g.IntN(len(outsideLR))], err: g.Float64()}
				if rep%2 == 1 {
					obs[i].row = inside[0]
				}
			}
			want := pc.fit(obs)
			for _, side := range []*parzen{&pc.m.good, &pc.m.bad} {
				if k := side.dims[0]; k.bw == k.span {
					atSpan++
				} else if k.bw == k.span/50 {
					atFloor++
				}
			}
			draws := make([]int, 24)
			for i := range draws {
				draws[i] = inside[g.IntN(len(inside))]
			}
			pc.check(t, "clamped bandwidth", want, draws)
		}
		t.Logf("%d sides at bw = span, %d at span/50, %+v", atSpan, atFloor, pc.paths)
		if atSpan < 20 || atFloor < 100 || pc.paths.exact > 0 || len(inside) < 8 {
			t.Errorf("%d sides at bw = span, %d at span/50, paths %+v, %d members inside", atSpan, atFloor, pc.paths, len(inside))
		}
	})

	t.Run("range guard", func(t *testing.T) {
		// No fit reaches the guard (newKDE keeps bw ≥ span/50, so a factor of
		// ℓ/g stays within 1+20n), so shrink ℓ's bandwidths by hand: a
		// candidate sitting on a centre then has a factor of about 1/bw. Up to
		// 1e36 the approximation still decides or hands over contenders; from
		// 1e44 that draw's ratio is NaN and every draw is scored exactly (in
		// between sits the guard, 1e40, times what g and n contribute); below
		// bw = 1e-100 the fit is not sound at all.
		pool := space.SampleN(24, g.Split("guard"))
		pc := newProposeCase(space, pool)
		for e := 30.0; e <= 125; e++ {
			shrink := math.Pow(10, -e)
			for rep := 0; rep < 10; rep++ {
				m := pc.m
				m.fit(randomObs(g, 12, len(pool)))
				for d := range m.good.dims {
					k := &m.good.dims[d]
					k.bw *= shrink
					k.norm = k.bw * math.Sqrt(2*math.Pi)
					k.scale, k.kernW = math.Sqrt(expStep/2)/k.bw, 1/(k.norm*float64(len(k.centers)+1))
					m.sound = m.sound && k.inRange()
				}
				before := pc.paths.exact
				// The last draw is the best observation, a centre of ℓ.
				pc.check(t, "hand-made bandwidth", exactScores(m), append(randomDraws(g, 23, len(pool)), m.order.obs[m.order.idx[0]].row))
				allExact := pc.paths.exact > before
				if (e <= 36 && allExact) || (e >= 44 && !allExact) || (e >= 102 && m.sound) || (e <= 97 && !m.sound) {
					t.Fatalf("bandwidths shrunk by %g: all-exact loop taken = %v, fit sound = %v", shrink, allExact, m.sound)
				}
			}
		}
	})
}

// TestProposeCertifiedShare measures, at the bench bank's shape (a 64-config
// pool, the paper's budget: 12 model proposals per TPE trial, Hyperband's
// five brackets per BOHB trial), how often the approximation alone decides a
// proposal and how many exact scores the others need. The floor is loose on
// purpose: it fails when a margin or table change hands the proposals back to
// logDensity, not on a percent.
func TestProposeCertifiedShare(t *testing.T) {
	const trials = 24
	space, s := DefaultSpace(), DefaultSettings().Normalize()
	tpe := TPE{}.normalize()
	o := newTestOracle(0.05)
	o.pool = space.SampleN(64, rng.New(64).Split("pool"))
	maxR := perConfigRounds(o, s)
	var tp, bp proposePaths

	for trial := 0; trial < trials; trial++ {
		g := rng.New(uint64(trial)).Split("share-tpe")
		m := newParzenModel(tpe, o, space)
		var observed []parzenObs
		for i := 0; i < s.Budget.K; i++ {
			var cfg fl.HParams
			var row int
			if i < tpe.NStartup {
				cfg, row = m.sample(g.Splitf("startup-%d", i))
			} else {
				m.fit(observed)
				cfg, row = m.propose(g.Splitf("propose-%d", i))
				tp.record(m)
			}
			observed = append(observed, parzenObs{row: row, err: o.Evaluate(cfg, maxR, tpeEvalIDs.ID(i))})
		}
	}

	// BOHB: runHyperbandLoop's brackets, with a look at the model after each
	// proposal that went through it (propose overwrites every draw).
	plans := hyperbandPlan(maxR, s)
	totalRungs := 0
	for _, p := range plans {
		totalRungs += len(rungLadder(p.r0, maxR, s.Eta))
	}
	for trial := 0; trial < trials; trial++ {
		g := rng.New(uint64(trial)).Split("share-bohb")
		st := &bohbState{cfg: BOHB{RandomFraction: 1.0 / 3, MinPoints: 6},
			model: newParzenModel(tpe, o, space), top: -1, gSub: rng.New(0)}
		h, cum := &History{}, 0
		for bi, plan := range plans {
			st.rows = st.rows[:0]
			cfgs := make([]fl.HParams, plan.n)
			for i := range cfgs {
				st.model.draws[0] = -1
				cfgs[i] = st.propose(g.Splitf("bracket-%d-cfg-%d", bi, i))
				if st.model.draws[0] >= 0 {
					bp.record(st.model)
				}
			}
			p := shaParams{r0: plan.r0, maxR: maxR, eta: s.Eta, epsilon: s.Epsilon, totalRungs: totalRungs,
				label: "hb-bracket-" + strconv.Itoa(bi), noiseG: rng.New(0)}
			runSHA(o, cfgs, p, s.Budget.TotalRounds, &cum, h, g.Splitf("bracket-%d", bi), st.observe)
		}
	}

	for _, m := range []struct {
		name string
		p    proposePaths
	}{{"tpe", tp}, {"bohb", bp}} {
		total := m.p.certified + m.p.contended + m.p.exact
		share := float64(m.p.certified) / float64(total)
		per := float64(m.p.contenders) / float64(max(m.p.contended, 1))
		t.Logf("%s: %d proposals, %.1f%% decided with no Exp or Log, %d contended (%.2f exact scores each), %d all-exact",
			m.name, total, 100*share, m.p.contended, per, m.p.exact)
		if total < 10*trials || share < 0.9 || per > 6 || m.p.exact > 0 {
			t.Errorf("%s: the approximation decides %.1f%% of %d proposals, %.2f exact scores per contended one, %d all-exact; want >= 90%%, <= 6 and 0",
				m.name, 100*share, total, per, m.p.exact)
		}
	}
}

// FuzzProposeCertified decodes bytes into a pool (coordinates on a 256-step
// grid of the space, so equal and adjacent rows are common, and one step
// past its upper bound), an observation set (errors on a grid too, with NaN)
// and a list of draws, and holds the engine's argmax to the selection loop
// over the reference model's scores, and its ratios with lanes to the Go
// loop's (checkLanes).
func FuzzProposeCertified(f *testing.F) {
	g := rng.New(9)
	for seed := 0; seed < 6; seed++ {
		data := []byte{byte(8 + g.IntN(40)), byte(4 + g.IntN(24))}
		for i := 0; i < 400; i++ {
			data = append(data, byte(g.IntN(256)))
		}
		f.Add(data)
	}
	f.Add([]byte{2, 4, 10, 10, 10, 10, 10, 0, 10, 10, 10, 10, 10, 0, 0, 7, 1, 7, 0, 9, 1, 255, 0, 1, 1, 0})
	space := DefaultSpace()
	lo, hi := spaceBounds(space)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nPool, nObs := 2+int(data[0])%62, 2+int(data[1])%30
		data = data[2:]
		if len(data) < 6*nPool+2*nObs+1 {
			return
		}
		pool := make([]fl.HParams, nPool)
		for i := range pool {
			var v [5]float64
			for d := range v {
				v[d] = lo[d] + (hi[d]-lo[d])*float64(data[d])/254 // byte 255 is outside the space
			}
			pool[i] = fl.HParams{ServerLR: math.Pow(10, v[0]), Beta1: v[1], Beta2: v[2], ClientLR: math.Pow(10, v[3]),
				ClientMomentum: v[4], BatchSize: space.BatchSizes[int(data[5])%len(space.BatchSizes)]}
			data = data[6:]
		}
		obs := make([]parzenObs, nObs)
		for i := range obs {
			obs[i] = parzenObs{row: int(data[0]) % nPool, err: float64(data[1]) / 254}
			if data[1] == 255 {
				obs[i].err = math.NaN()
			}
			data = data[2:]
		}
		draws := make([]int, min(len(data), 48))
		for i := range draws {
			draws[i] = int(data[i]) % nPool
		}
		pc := newProposeCase(space, pool)
		pc.check(t, "fuzz", pc.fit(obs), draws)
	})
}
