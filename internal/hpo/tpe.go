package hpo

import (
	"math"
	"slices"
	"sort"
	"sync"

	"noisyeval/internal/dp"
	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// TPE is the tree-structured Parzen estimator (Bergstra et al., 2011), the
// Bayesian-optimization representative in the study. It models p(θ|y) with
// two densities — ℓ(θ) over the best γ-fraction of observations and g(θ)
// over the rest — and proposes the candidate maximizing ℓ(θ)/g(θ), which is
// equivalent to maximizing expected improvement under the TPE model.
//
// Like the paper's setup, each proposed configuration is trained for the
// full per-config budget and evaluated once; the (noisy) observed errors are
// what the densities are fit on — TPE has no mechanism to account for
// evaluation noise, which is exactly the failure mode the study measures.
type TPE struct {
	// Gamma is the good/bad split quantile (default 0.25).
	Gamma float64
	// NStartup is the number of initial random configurations (default 4).
	NStartup int
	// NCandidates is the number of EI candidates scored per iteration
	// (default 24).
	NCandidates int
}

// Name implements Method.
func (TPE) Name() string { return "TPE" }

// Run implements Method.
func (t TPE) Run(o Oracle, space Space, s Settings, g *rng.RNG) *History {
	s = s.Normalize()
	t = t.normalize()
	h := newHistory("TPE", o)
	maxR := perConfigRounds(o, s)
	k := s.Budget.K
	h.Grow(k)
	dpp := dp.Params{Epsilon: s.Epsilon, TotalEvals: k}

	sc := tpeScratchPool.Get().(*tpeScratch)
	gSub, m := sc.gSub, &sc.model
	m.reset(t, o, space)
	observed := sc.observed[:0]
	cum := 0
	for i := 0; i < k; i++ {
		if cum+maxR > s.Budget.TotalRounds {
			break
		}
		var ci int
		if i < t.NStartup || len(observed) < t.NStartup {
			g.SplitIntInto(gSub, "startup-", i)
			ci = m.sample(gSub)
		} else {
			g.SplitIntInto(gSub, "propose-", i)
			m.fit(observed) // the set grew by one: refit into the model's scratch
			ci = m.propose(gSub)
		}
		cum += maxR
		obs, trueErr := sc.ask.evaluate(o, ci, maxR, tpeEvalIDs.ID(i))
		if dpp.Private() {
			g.SplitIntInto(gSub, "dp-", i)
			obs = dpp.Release(obs, o.SampleSize(), gSub)
		}
		h.Add(ci, maxR, obs, trueErr, cum)
		observed = append(observed, parzenObs{row: ci, err: obs})
	}
	sc.observed = observed
	tpeScratchPool.Put(sc) // only after a run that returned; see RandomSearch.Run
	return h
}

// tpeScratch is TPE.Run's working set besides the History it returns: the
// per-iteration RNG, the proposal model and the observation list. Runs
// recycle it through tpeScratchPool.
type tpeScratch struct {
	gSub     *rng.RNG // reseeded per iteration; same streams as Splitf
	model    parzenModel
	observed []parzenObs
	ask      oneAsk
}

var tpeScratchPool = sync.Pool{New: func() any { return &tpeScratch{gSub: rng.New(0)} }}

func (t TPE) normalize() TPE {
	if t.Gamma <= 0 || t.Gamma >= 1 {
		t.Gamma = 0.25
	}
	if t.NStartup < 1 {
		t.NStartup = 4
	}
	if t.NCandidates < 1 {
		t.NCandidates = 24
	}
	return t
}

// parzenObs is one scored configuration: its row in the model's feature
// table and the (noisy) error the densities are fit on.
type parzenObs struct {
	row int
	err float64
}

// features are the coordinates the densities see: the five continuous
// dimensions of configVec and the batch-size index.
type features struct {
	v     [5]float64
	batch int
}

// parzenModel is the proposal engine shared by TPE and BOHB: the ℓ/g density
// pair fit on one observation set, plus everything a Run reuses across fits.
// fit is called once per observation set, not per proposal; every candidate
// is a pool index, so ℓ−g is computed at most once per pool member per fit
// and repeat draws read the memo (DESIGN.md §15) — and only for the draws a
// table-built approximation of ℓ/g cannot rule out (DESIGN.md §19).
//
// The arithmetic is frozen: every expression that reaches a comparison keeps
// the operand order of the per-proposal refit it replaced (kept as the
// reference in reference_test.go), because histories must stay bit-identical.
// The approximation never reaches one: it only names draws whose exact score
// cannot be the largest.
type parzenModel struct {
	space  Space
	pool   []fl.HParams
	lo, hi [5]float64
	gamma  float64

	// rows is the feature table: one row per pool member. rowsOf and
	// rowsBatch name the pool (its first member's address; the length is
	// len(rows)) and the batch sizes it was built for, so a pooled model
	// keeps it across runs over the same pool and space.
	rows      []features
	rowsOf    *fl.HParams
	rowsBatch []int

	good, bad parzen
	order     errOrder  // fit scratch: observation indices sorted by error
	centers   []float64 // fit scratch: 5 columns of len(obs) sorted coordinates
	counts    []float64 // fit scratch: batch counts, good side then bad

	// memo holds, per pool index, ℓ−g and approxRatio's ℓ/g, each valid where
	// its stamp equals gen; fit bumps gen, so a refit invalidates every entry
	// of both at once.
	memo []poolMemo
	gen  uint32

	// The approximate side of propose: batchRatio is ℓ/g's batch-size factor
	// per fit, draws the candidate indices of one proposal. sound is false
	// when the fit has a NaN centre or a kernel outside kde1d.approx's range;
	// every draw is then scored exactly. todo and lane are ratios' scratch:
	// the unmemoised draws, then their coordinates and densities; lanes is
	// useLanes, false only where a test holds the kernel to the Go loop.
	batchRatio []float64
	draws      []int
	sound      bool
	todo       []int
	lane       []float64
	lanes      bool
}

type poolMemo struct {
	score, ratio           float64
	scoreStamp, ratioStamp uint32
}

func newParzenModel(t TPE, o Oracle, space Space) *parzenModel {
	m := new(parzenModel)
	m.reset(t, o, space)
	return m
}

// reset readies m for a run over o's pool, rebuilding every table in m's own
// buffers where they are large enough. The feature rows depend only on the
// pool and the space's batch sizes, so they are kept when both are the last
// run's: the same backing array and length, the same sizes. Memo entries an
// earlier run left carry older stamps than any later fit's.
func (m *parzenModel) reset(t TPE, o Oracle, space Space) {
	nb := len(space.BatchSizes)
	m.space, m.pool, m.gamma = space, o.Pool(), t.Gamma
	m.lo, m.hi = spaceBounds(space)
	// One backing for the five per-batch-size tables; counts heads it.
	perBatch := resize(m.counts[:cap(m.counts)], 5*nb)
	m.counts, m.good.logBatch, m.bad.logBatch, m.batchRatio =
		perBatch[:2*nb], perBatch[2*nb:3*nb], perBatch[3*nb:4*nb], perBatch[4*nb:]
	if len(m.pool) == 0 || m.rowsOf != &m.pool[0] || len(m.rows) != len(m.pool) || !slices.Equal(m.rowsBatch, space.BatchSizes) {
		m.rows, m.rowsOf = resize(m.rows, len(m.pool)), nil
		for i, c := range m.pool {
			m.rows[i] = m.features(c)
		}
		if len(m.pool) > 0 {
			m.rowsOf, m.rowsBatch = &m.pool[0], append(m.rowsBatch[:0], space.BatchSizes...)
		}
	}
	m.memo = resize(m.memo, len(m.pool))
	m.draws = resize(m.draws, t.NCandidates)
	m.lanes = useLanes
}

// resize returns b resized to length n, reallocating only on growth.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

func (m *parzenModel) features(c fl.HParams) features {
	return features{v: configVec(c), batch: batchIndex(m.space, c.BatchSize)}
}

// sample draws a random candidate exactly as sampleConfig does and returns
// its pool index, which is its feature row.
func (m *parzenModel) sample(g *rng.RNG) int {
	return g.IntN(len(m.pool))
}

// errOrder sorts observation indices by error. sort.Stable runs the same
// insertion-sort/symMerge sequence sort.SliceStable ran over the copied
// observations, so ties (and NaNs) land where they always did.
type errOrder struct {
	idx []int
	obs []parzenObs
}

func (s *errOrder) Len() int           { return len(s.idx) }
func (s *errOrder) Less(i, j int) bool { return s.obs[s.idx[i]].err < s.obs[s.idx[j]].err }
func (s *errOrder) Swap(i, j int)      { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }

// fit builds ℓ over the best γ-fraction of obs and g over the rest, and
// invalidates both memos.
func (m *parzenModel) fit(obs []parzenObs) {
	n := len(obs)
	m.order.obs, m.order.idx = obs, m.order.idx[:0]
	for i := range obs {
		m.order.idx = append(m.order.idx, i)
	}
	sort.Stable(&m.order)
	nGood := int(m.gamma * float64(n))
	if nGood < 1 {
		nGood = 1
	}
	if len(m.centers) < 5*n {
		m.centers = make([]float64, 10*n) // room for the set to double
	}
	nb := len(m.space.BatchSizes)
	clear(m.counts)
	m.sound = true
	for i, oi := range m.order.idx {
		f := &m.rows[obs[oi].row]
		for d := 0; d < 5; d++ {
			m.centers[d*n+i] = f.v[d]
			m.sound = m.sound && !math.IsNaN(f.v[d]) // approx drops a NaN centre, logDensity does not
		}
		if i < nGood {
			m.counts[f.batch]++
		} else {
			m.counts[nb+f.batch]++
		}
	}
	for d := 0; d < 5; d++ {
		col := m.centers[d*n : (d+1)*n]
		m.good.dims[d] = newKDE(col[:nGood], m.lo[d], m.hi[d])
		m.bad.dims[d] = newKDE(col[nGood:], m.lo[d], m.hi[d])
		m.sound = m.sound && m.good.dims[d].inRange() && m.bad.dims[d].inRange()
	}
	m.good.setBatch(m.counts[:nb])
	m.bad.setBatch(m.counts[nb:])
	for i := range m.batchRatio {
		m.batchRatio[i] = m.good.batch.prob(i) / m.bad.batch.prob(i)
	}
	if m.gen++; m.gen == 0 { // the stamps wrapped: no entry may look current
		clear(m.memo)
		m.gen = 1
	}
}

// propose returns the pool index with the highest ℓ/g among NCandidates
// drawn pool indices. The first draw wins ties and non-finite scores.
func (m *parzenModel) propose(g *rng.RNG) int {
	// The draws are the selection's only use of the stream, so taking them
	// all first leaves each index and the stream's position what they were.
	for i := range m.draws {
		m.draws[i] = g.IntN(len(m.pool))
	}
	return m.argmax()
}

// argmax returns the pool index among m.draws with the highest ℓ−g: the
// selection loop as it always was, over the draws contenders cannot rule out.
func (m *parzenModel) argmax() int {
	floor, only := m.contenders()
	if only >= 0 {
		return only
	}
	best, bestScore := -1, math.Inf(-1)
	for _, c := range m.draws {
		e := &m.memo[c]
		if e.ratio < floor {
			continue
		}
		if e.scoreStamp != m.gen {
			e.scoreStamp, e.score = m.gen, m.good.logDensity(&m.rows[c])-m.bad.logDensity(&m.rows[c])
		}
		if best < 0 {
			best = c
		}
		if e.score > bestScore {
			best, bestScore = c, e.score
		}
	}
	return best
}

// ratioMargin is how far below the largest approximate ℓ/g a draw's own must
// lie for its exact score to be certainly smaller. approxRatio is within
// 1e-6 of the true ratio (ten densities at 4.1e-8 each) and the exact scores
// within 1e-12 of its logarithm, so the margin has a hundredfold slack.
const ratioMargin = 1e-4

// contenders brackets the exact argmax over m.draws without an Exp or a Log:
// a draw whose approximate ℓ/g is below floor has an exact score strictly
// below the leading draw's, so the selection loop may skip it, and when one
// pool index alone reaches floor it is what that loop returns (only, else
// −1). A floor of 0 skips nothing: the fit is not sound, or some draw's
// ratio is NaN, and the loop then scores every draw as it always did.
func (m *parzenModel) contenders() (floor float64, only int) {
	if !m.sound {
		return 0, -1
	}
	m.ratios()
	top, only := 0.0, -1
	for _, c := range m.draws {
		if r := m.memo[c].ratio; r > top {
			top, only = r, c
		} else if math.IsNaN(r) {
			return 0, -1
		}
	}
	floor = top * (1 - ratioMargin)
	for _, c := range m.draws {
		if c != only && m.memo[c].ratio >= floor {
			return floor, -1
		}
	}
	return floor, only
}

// ratios memoises approxRatio for every draw without a ratio under this fit.
// Those draws' coordinates go through approxInto one dimension and one side
// at a time, four pool members per lane group; the list is padded to whole
// groups with its last member, whose extra copies are computed and dropped.
func (m *parzenModel) ratios() {
	todo := m.todo[:0]
	for _, c := range m.draws {
		if e := &m.memo[c]; e.ratioStamp != m.gen {
			e.ratioStamp = m.gen
			todo = append(todo, c)
		}
	}
	m.todo = todo
	if len(todo) == 0 {
		return
	}
	n := (len(todo) + 3) &^ 3
	m.lane = resize(m.lane, 11*n)
	xs, dens := m.lane[:n], m.lane[n:11*n] // dens[(2d+side)·n + j]
	for d := 0; d < 5; d++ {
		for j := range xs {
			xs[j] = m.rows[todo[min(j, len(todo)-1)]].v[d]
		}
		m.good.dims[d].approxInto(dens[2*d*n:(2*d+1)*n], xs, m.lanes)
		m.bad.dims[d].approxInto(dens[(2*d+1)*n:(2*d+2)*n], xs, m.lanes)
	}
	for j, c := range todo {
		m.memo[c].ratio = m.approxRatio(&m.rows[c], dens[j:], n)
	}
}

// approxRatio returns ℓ(f)/g(f) within a relative 1e-6, from ℓ's and g's
// approximate densities at f's coordinates (dimension d's at dens[2d·n] and
// dens[(2d+1)·n]), or NaN where that cannot be promised: a coordinate
// outside [lo, hi] (there the prior is 0, and the prior is what bounds the
// kernels approx drops), or a factor so large or small that the product of
// five might leave the normal floats.
func (m *parzenModel) approxRatio(f *features, dens []float64, n int) float64 {
	r := m.batchRatio[f.batch]
	for d := 0; d < 5; d++ {
		x := f.v[d]
		if !(x >= m.lo[d] && x <= m.hi[d]) {
			return math.NaN()
		}
		q := dens[2*d*n] / dens[(2*d+1)*n]
		if !(q > 1e-40 && q < 1e40) {
			return math.NaN()
		}
		r *= q
	}
	return r
}

// parzen is the per-dimension kernel density model of one TPE side. The
// five continuous dimensions (log server lr, β1, β2, log client lr,
// momentum) use Gaussian kernels mixed with a uniform prior; batch size
// uses a smoothed categorical whose log-probabilities are taken once per fit.
type parzen struct {
	dims     [5]kde1d
	batch    catKDE
	logBatch []float64
}

func (p *parzen) setBatch(counts []float64) {
	p.batch = catKDE{counts: counts}
	for i := range counts {
		p.logBatch[i] = math.Log(p.batch.prob(i))
	}
}

// configVec maps a configuration to the 5 continuous coordinates.
func configVec(c fl.HParams) [5]float64 {
	return [5]float64{
		math.Log10(c.ServerLR),
		c.Beta1,
		c.Beta2,
		math.Log10(c.ClientLR),
		c.ClientMomentum,
	}
}

func spaceBounds(s Space) (lo, hi [5]float64) {
	lo = [5]float64{math.Log10(s.ServerLRMin), s.Beta1Min, s.Beta2Min, math.Log10(s.ClientLRMin), s.MomentumMin}
	hi = [5]float64{math.Log10(s.ServerLRMax), s.Beta1Max, s.Beta2Max, math.Log10(s.ClientLRMax), s.MomentumMax}
	return lo, hi
}

// batchIndex returns the index of the nearest batch size in the space.
func batchIndex(s Space, b int) int {
	best, bestDiff := 0, math.MaxInt
	for i, v := range s.BatchSizes {
		d := v - b
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			best, bestDiff = i, d
		}
	}
	return best
}

// logDensity returns the model's log density at the feature row.
func (p *parzen) logDensity(f *features) float64 {
	sum := 0.0
	for d := 0; d < 5; d++ {
		sum += p.dims[d].logDensity(f.v[d])
	}
	sum += p.logBatch[f.batch]
	return sum
}

// kde1d is a 1-D Gaussian kernel density with a uniform prior component over
// [lo, hi], following the Parzen construction of Bergstra et al. (2011).
//
// span and norm (bw·√2π) are the loop invariants of logDensity, computed once
// per fit; they stay divisors so every quotient rounds as it always did.
// scale, kernW and priorW are approx's: √(expStep/2)/bw, so that a scaled
// distance squared is expStep·½z², and the mixture weights of one kernel,
// 1/(norm·(n+1)), and of the prior, 1/(span·(n+1)).
type kde1d struct {
	lo, hi, span         float64
	centers              []float64
	bw, norm             float64
	scale, kernW, priorW float64
}

func newKDE(values []float64, lo, hi float64) kde1d {
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	bw := span
	if n := len(values); n > 0 {
		// Scott's rule with floors to keep densities proper on tiny samples.
		sd := stddev(values)
		bw = 1.06 * sd * scottFactor(n)
		if bw < span/50 {
			bw = span / 50
		}
		if bw > span {
			bw = span
		}
	}
	norm, n1 := bw*math.Sqrt(2*math.Pi), float64(len(values)+1)
	return kde1d{lo: lo, hi: hi, span: span, centers: values, bw: bw, norm: norm,
		scale: math.Sqrt(expStep/2) / bw, kernW: 1 / (norm * n1), priorW: 1 / (span * n1)}
}

// scottFactors[n] is math.Pow(n, −0.2), Scott's rule's sample-size factor,
// for every set size a fit is likely to meet. Read-only after init.
var scottFactors = func() (t [256]float64) {
	for n := range t {
		t[n] = math.Pow(float64(n), -0.2)
	}
	return t
}()

func scottFactor(n int) float64 {
	if n < len(scottFactors) {
		return scottFactors[n]
	}
	return math.Pow(float64(n), -0.2)
}

// expTable[i] is exp(−i/expStep), up to the exponent expCut past which approx
// drops a kernel: exp(−64) is 1.6e-28, against a prior that is never less
// than a twentieth of a kernel's peak. Read-only after init.
const expStep, expCut = 32, 64

var expTable = func() (t [expStep * expCut]float64) {
	for i := range t {
		t[i] = math.Exp(-float64(i) / expStep)
	}
	return t
}()

// approxInto sets out[j] = k.approx(xs[j]) for every j. With lanes, the AVX2
// kernel sums whole groups of four with approx's operations in approx's
// order, so every value is bit-identical to approx's; the rest, and every
// value without lanes, is approx itself.
func (k *kde1d) approxInto(out, xs []float64, lanes bool) {
	j := 0
	if nvec := len(xs) / 4; lanes && nvec > 0 && len(k.centers) > 0 {
		kernelSumsAVX2(&out[0], &xs[0], &k.centers[0], &expTable[0], nvec, len(k.centers), k.scale)
		for ; j < 4*nvec; j++ {
			out[j] = k.priorW + out[j]*k.kernW
		}
	}
	for ; j < len(xs); j++ {
		out[j] = k.approx(xs[j])
	}
}

// approx returns the mixture density at x in [lo, hi] — exp(logDensity(x)) —
// within a relative 4.1e-8 and with no Exp, Log or division: each kernel is
// a table entry times the cubic Taylor polynomial of exp(−y) over the
// remainder y < 1/expStep, short by at most y⁴/24 < 4e-8. Every term is
// positive, so the error of the sum is relative too.
func (k *kde1d) approx(x float64) float64 {
	sum := 0.0
	for _, c := range k.centers {
		u := (x - c) * k.scale
		if t := u * u; t < expStep*expCut {
			i := int(t)
			y := (t - float64(i)) * (1.0 / expStep)
			sum += expTable[i] * (1 - y*(1-y*(0.5-y*(1.0/6))))
		}
	}
	return k.priorW + sum*k.kernW
}

// inRange reports whether approx's products stay normal floats. newKDE keeps
// span/50 ≤ bw ≤ span, so two comparisons bound both, and a NaN fails them.
func (k *kde1d) inRange() bool { return k.bw > 1e-100 && k.span < 1e100 }

// logDensity mixes the uniform prior with the kernels:
// p(x) = (prior + Σ_i N(x; c_i, bw)) / (n + 1).
func (k *kde1d) logDensity(x float64) float64 {
	// The uniform prior is supported only on [lo, hi].
	prior := 0.0
	if x >= k.lo && x <= k.hi {
		prior = 1 / k.span
	}
	sum := prior
	for _, c := range k.centers {
		z := (x - c) / k.bw
		sum += math.Exp(-0.5*z*z) / k.norm
	}
	return math.Log(sum / float64(len(k.centers)+1))
}

// catKDE is a Laplace-smoothed categorical density.
type catKDE struct {
	counts []float64
}

func (c catKDE) prob(i int) float64 {
	total := 0.0
	for _, v := range c.counts {
		total += v
	}
	return (c.counts[i] + 1) / (total + float64(len(c.counts)))
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}
