package hpo

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// testOracle is a synthetic response surface: configurations closer to the
// optimum (server lr 1e-3, client lr 1e-1) have lower error, error shrinks
// with training rounds, and Evaluate adds subsampling-like noise keyed by
// (evalID, config) so repeated evaluations differ.
type testOracle struct {
	pool       []fl.HParams
	noise      float64
	sampleSize int
	maxRounds  int
	seed       uint64
	evalCalls  int
}

func (o *testOracle) base(cfg fl.HParams) float64 {
	d := math.Abs(math.Log10(cfg.ServerLR)+3)/6 + math.Abs(math.Log10(cfg.ClientLR)+1)/6
	e := 0.08 + 0.5*d
	if e > 0.95 {
		e = 0.95
	}
	return e
}

func (o *testOracle) TrueError(cfg fl.HParams, rounds int) float64 {
	if rounds > o.maxRounds {
		rounds = o.maxRounds
	}
	b := o.base(cfg)
	frac := float64(rounds) / float64(o.maxRounds)
	return b + (0.9-b)*(1-frac)
}

func (o *testOracle) Evaluate(cfg fl.HParams, rounds int, evalID string) float64 {
	o.evalCalls++
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%v|%v|%d", o.seed, evalID, cfg.ServerLR, cfg.ClientLR, cfg.BatchSize)
	g := rng.New(h.Sum64())
	return o.TrueError(cfg, rounds) + g.Normal(0, o.noise)
}

func (o *testOracle) SampleSize() int    { return o.sampleSize }
func (o *testOracle) Pool() []fl.HParams { return o.pool }
func (o *testOracle) MaxRounds() int     { return o.maxRounds }

// newTestOracle serves a 128-member pool drawn from DefaultSpace, the
// shape of the paper's bank.
func newTestOracle(noise float64) *testOracle {
	return &testOracle{pool: DefaultSpace().SampleN(128, rng.New(7)), noise: noise, sampleSize: 10, maxRounds: 405, seed: 1}
}

func smallSettings() Settings {
	return Settings{Budget: Budget{TotalRounds: 6480, MaxPerConfig: 405, K: 16}, Epsilon: math.Inf(1), Eta: 3, Brackets: 5}
}

// --- Space tests ---

func TestDefaultSpaceValid(t *testing.T) {
	if err := DefaultSpace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceSampleInBounds(t *testing.T) {
	s := DefaultSpace()
	g := rng.New(1)
	f := func(seed uint8) bool {
		cfg := s.Sample(g.Splitf("s%d", seed))
		return s.Contains(cfg) && cfg.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSpaceSampleFixedFields(t *testing.T) {
	cfg := DefaultSpace().Sample(rng.New(2))
	if cfg.LRDecay != 0.9999 || cfg.WeightDecay != 5e-5 || cfg.Epochs != 1 {
		t.Errorf("fixed fields = %+v", cfg)
	}
}

func TestSpaceLogUniformLR(t *testing.T) {
	// Roughly half the server-lr samples should fall below the geometric
	// midpoint sqrt(1e-6 * 1e-1) ≈ 10^-3.5.
	s := DefaultSpace()
	g := rng.New(3)
	below := 0
	const n = 4000
	mid := math.Pow(10, -3.5)
	for i := 0; i < n; i++ {
		if s.Sample(g.Splitf("c%d", i)).ServerLR < mid {
			below++
		}
	}
	if frac := float64(below) / n; math.Abs(frac-0.5) > 0.05 {
		t.Errorf("fraction below geometric mid = %.3f", frac)
	}
}

func TestWithServerLRDecades(t *testing.T) {
	s := DefaultSpace().WithServerLRDecades(1)
	if math.Abs(math.Log10(s.ServerLRMin)-(-4.5)) > 1e-9 || math.Abs(math.Log10(s.ServerLRMax)-(-3.5)) > 1e-9 {
		t.Errorf("1 decade = [%g, %g]", s.ServerLRMin, s.ServerLRMax)
	}
	s4 := DefaultSpace().WithServerLRDecades(4)
	if math.Abs(math.Log10(s4.ServerLRMin)-(-6)) > 1e-9 || math.Abs(math.Log10(s4.ServerLRMax)-(-2)) > 1e-9 {
		t.Errorf("4 decades = [%g, %g]", s4.ServerLRMin, s4.ServerLRMax)
	}
}

func TestSpaceValidateErrors(t *testing.T) {
	bad := DefaultSpace()
	bad.ServerLRMin = 0
	if bad.Validate() == nil {
		t.Error("zero lr min accepted")
	}
	bad2 := DefaultSpace()
	bad2.BatchSizes = nil
	if bad2.Validate() == nil {
		t.Error("empty batch sizes accepted")
	}
	bad3 := DefaultSpace()
	bad3.Beta1Max = 1.0
	if bad3.Validate() == nil {
		t.Error("beta1 = 1 accepted")
	}
}

func TestRungRounds(t *testing.T) {
	got := RungRounds(405, 3, 5)
	want := []int{5, 15, 45, 135, 405}
	if len(got) != len(want) {
		t.Fatalf("rungs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rungs = %v, want %v", got, want)
		}
	}
	// Dedup for tiny maxR.
	small := RungRounds(4, 3, 5)
	if small[0] != 1 || small[len(small)-1] != 4 {
		t.Errorf("small rungs = %v", small)
	}
}

// --- History tests ---

func TestRecommendPrefersFidelityThenError(t *testing.T) {
	h := NewHistory("test", make([]fl.HParams, 1))
	h.Add(0, 405, 0.5, 0.5, 405)
	h.Add(0, 45, 0.1, 0.1, 450)
	h.Add(0, 405, 0.4, 0.45, 855)
	rec, ok := h.Recommend()
	if !ok || rec.Observed != 0.4 {
		t.Errorf("recommendation = %+v", rec)
	}
	// At budget 405 only the first observation is available.
	rec405, _ := h.RecommendAt(405)
	if rec405.Observed != 0.5 {
		t.Errorf("budget-405 recommendation = %+v", rec405)
	}
}

// TestHistoryRecordSize pins the compact record: a pointer-free 32 bytes
// per observation, against the 104 of an Observation.
func TestHistoryRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(record{}); n > 32 {
		t.Errorf("a History record is %d bytes, want at most 32", n)
	}
}

func TestTrueErrorCurveBeforeFirstObservation(t *testing.T) {
	h := NewHistory("test", make([]fl.HParams, 1))
	h.Add(0, 405, 0.3, 0.35, 405)
	curve := h.TrueErrorCurve([]int{100, 405, 800})
	if curve[0] != 0.35 || curve[1] != 0.35 || curve[2] != 0.35 {
		t.Errorf("curve = %v", curve)
	}
	empty := &History{}
	if c := empty.TrueErrorCurve([]int{10}); c[0] != 1 {
		t.Errorf("empty history curve = %v", c)
	}
}

// --- Random search ---

func TestRandomSearchBudget(t *testing.T) {
	o := newTestOracle(0)
	h := RandomSearch{}.Run(o, DefaultSpace(), smallSettings(), rng.New(5))
	if h.Len() != 16 {
		t.Fatalf("observations = %d, want 16", h.Len())
	}
	if h.RoundsConsumed() != 6480 {
		t.Errorf("rounds = %d, want 6480", h.RoundsConsumed())
	}
	for _, obs := range h.All() {
		if obs.Rounds != 405 {
			t.Errorf("RS observation at fidelity %d", obs.Rounds)
		}
	}
}

func TestRandomSearchFindsGoodConfigNoiseless(t *testing.T) {
	o := newTestOracle(0)
	h := RandomSearch{}.Run(o, DefaultSpace(), smallSettings(), rng.New(6))
	rec, _ := h.Recommend()
	// Noiseless recommendation must be the true argmin of the sampled set.
	best := math.Inf(1)
	for _, obs := range h.All() {
		if obs.True < best {
			best = obs.True
		}
	}
	if rec.True != best {
		t.Errorf("recommended %.4f, sampled best %.4f", rec.True, best)
	}
}

func TestRandomSearchNoiseDegradesSelection(t *testing.T) {
	// Regret (chosen true error - best sampled true error) should grow with
	// evaluation noise — the core phenomenon of the paper.
	regret := func(noise float64) float64 {
		total := 0.0
		for seed := uint64(0); seed < 20; seed++ {
			o := newTestOracle(noise)
			o.seed = seed
			h := RandomSearch{}.Run(o, DefaultSpace(), smallSettings(), rng.New(100+seed))
			rec, _ := h.Recommend()
			best := math.Inf(1)
			for _, obs := range h.All() {
				if obs.True < best {
					best = obs.True
				}
			}
			total += rec.True - best
		}
		return total / 20
	}
	if r0, r1 := regret(0), regret(0.3); r1 <= r0 {
		t.Errorf("noisy regret %.4f should exceed noiseless %.4f", r1, r0)
	}
}

// TestMethodsSearchPool runs every registered method, private and not, and
// checks that each observed configuration is a member of the oracle's pool.
func TestMethodsSearchPool(t *testing.T) {
	inPool := map[fl.HParams]bool{}
	for _, c := range newTestOracle(0).pool {
		inPool[c] = true
	}
	for _, name := range Methods() {
		m, err := MethodByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{math.Inf(1), 1} {
			o := newTestOracle(0.05)
			s := smallSettings()
			s.Epsilon = eps
			h := m.Run(o, DefaultSpace(), s, rng.New(8))
			if h.Len() == 0 {
				t.Errorf("%s eps=%g: no observations", name, eps)
			}
			for _, obs := range h.All() {
				if !inPool[obs.Config] {
					t.Fatalf("%s eps=%g: observed a config outside the pool: %+v", name, eps, obs.Config)
				}
			}
		}
	}
}

// inPoolOf reports whether c is a member of pool.
func inPoolOf(pool []fl.HParams, c fl.HParams) bool {
	for _, p := range pool {
		if p == c {
			return true
		}
	}
	return false
}

// TestRandomSearchPoolMode checks that RS stays inside a pool smaller than
// its budget of configurations.
func TestRandomSearchPoolMode(t *testing.T) {
	pool := DefaultSpace().SampleN(8, rng.New(7))
	o := newTestOracle(0)
	o.pool = pool
	h := RandomSearch{}.Run(o, DefaultSpace(), smallSettings(), rng.New(8))
	for _, obs := range h.All() {
		if !inPoolOf(pool, obs.Config) {
			t.Fatal("RS proposed a config outside its 8-member pool")
		}
	}
}

func TestRandomSearchDeterminism(t *testing.T) {
	run := func() float64 {
		o := newTestOracle(0.1)
		h := RandomSearch{}.Run(o, DefaultSpace(), smallSettings(), rng.New(9))
		rec, _ := h.Recommend()
		return rec.True
	}
	if run() != run() {
		t.Error("RS not deterministic under a fixed seed")
	}
}

func TestRandomSearchDPChangesDecisions(t *testing.T) {
	s := smallSettings()
	s.Epsilon = 0.01 // absurdly strict: noise dominates
	diffs := 0
	for seed := uint64(0); seed < 10; seed++ {
		o1 := newTestOracle(0)
		o1.seed = seed
		clean := RandomSearch{}.Run(o1, DefaultSpace(), smallSettings(), rng.New(200+seed))
		o2 := newTestOracle(0)
		o2.seed = seed
		noisy := RandomSearch{}.Run(o2, DefaultSpace(), s, rng.New(200+seed))
		r1, _ := clean.Recommend()
		r2, _ := noisy.Recommend()
		if r1.Config != r2.Config {
			diffs++
		}
	}
	if diffs < 5 {
		t.Errorf("strict DP changed the recommendation only %d/10 times", diffs)
	}
}

// --- Grid search ---

func TestGridSearchRuns(t *testing.T) {
	o := newTestOracle(0)
	h := GridSearch{}.Run(o, DefaultSpace(), smallSettings(), rng.New(10))
	if h.Len() != 16 { // truncated by K
		t.Errorf("grid observations = %d", h.Len())
	}
	if h.RoundsConsumed() > 6480 {
		t.Error("grid exceeded budget")
	}
}

// --- TPE ---

func TestTPERunsFullBudget(t *testing.T) {
	o := newTestOracle(0.02)
	h := TPE{}.Run(o, DefaultSpace(), smallSettings(), rng.New(11))
	if h.Len() != 16 {
		t.Fatalf("TPE observations = %d", h.Len())
	}
	if h.RoundsConsumed() != 6480 {
		t.Errorf("TPE rounds = %d", h.RoundsConsumed())
	}
}

func TestTPEOutperformsRandomOnSmoothSurface(t *testing.T) {
	// With low noise, TPE's mean true error over its proposals should beat
	// RS's over many seeds (it concentrates samples near the optimum).
	meanErr := func(m Method) float64 {
		total := 0.0
		for seed := uint64(0); seed < 15; seed++ {
			o := newTestOracle(0.01)
			o.seed = seed
			h := m.Run(o, DefaultSpace(), smallSettings(), rng.New(300+seed))
			rec, _ := h.Recommend()
			total += rec.True
		}
		return total / 15
	}
	rs, tpe := meanErr(RandomSearch{}), meanErr(TPE{})
	if tpe > rs+0.02 {
		t.Errorf("TPE mean %.4f worse than RS mean %.4f on a smooth surface", tpe, rs)
	}
}

// TestTPEPoolMode checks that TPE's model-guided proposals stay inside a
// 32-member pool.
func TestTPEPoolMode(t *testing.T) {
	pool := DefaultSpace().SampleN(32, rng.New(12))
	o := newTestOracle(0.02)
	o.pool = pool
	h := TPE{}.Run(o, DefaultSpace(), smallSettings(), rng.New(13))
	for _, obs := range h.All() {
		if !inPoolOf(pool, obs.Config) {
			t.Fatal("TPE proposed a config outside its 32-member pool")
		}
	}
}

func TestKDEDensityIntegratesToOne(t *testing.T) {
	k := newKDE([]float64{-2, 0, 1.5}, -5, 5)
	integral := 0.0
	const steps = 4000
	for i := 0; i < steps; i++ {
		x := -8.0 + 16.0*float64(i)/steps
		integral += math.Exp(k.logDensity(x)) * 16.0 / steps
	}
	if math.Abs(integral-1) > 0.02 {
		t.Errorf("KDE integral = %.4f", integral)
	}
}

func TestCatKDEProbsSumToOne(t *testing.T) {
	c := catKDE{counts: []float64{3, 0, 1}}
	sum := 0.0
	for i := range c.counts {
		sum += c.prob(i)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("cat probs sum to %g", sum)
	}
	if c.prob(0) <= c.prob(1) {
		t.Error("higher count should mean higher probability")
	}
}

// --- SHA / Hyperband ---

func TestSHABudgetAccounting(t *testing.T) {
	o := newTestOracle(0)
	s := smallSettings()
	s.Budget.TotalRounds = 100000 // no truncation
	h := SuccessiveHalving{N: 81, R0: 5}.Run(o, DefaultSpace(), s, rng.New(15))
	// Incremental cost: 81*5 + 27*10 + 9*30 + 3*90 + 1*270 = 1485.
	if h.RoundsConsumed() != 1485 {
		t.Errorf("SHA rounds = %d, want 1485", h.RoundsConsumed())
	}
	// Observation counts per rung: 81+27+9+3+1 = 121.
	if h.Len() != 121 {
		t.Errorf("SHA observations = %d, want 121", h.Len())
	}
	rec, _ := h.Recommend()
	if rec.Rounds != 405 {
		t.Errorf("SHA recommendation at fidelity %d", rec.Rounds)
	}
}

func TestSHAKeepsBestNoiseless(t *testing.T) {
	o := newTestOracle(0)
	s := smallSettings()
	s.Budget.TotalRounds = 100000
	h := SuccessiveHalving{N: 27, R0: 15}.Run(o, DefaultSpace(), s, rng.New(16))
	rec, _ := h.Recommend()
	// The winner must be among the best few of the initial 27 by true error.
	var initials []float64
	for _, obs := range h.All() {
		if obs.Rounds == 15 {
			initials = append(initials, o.base(obs.Config))
		}
	}
	better := 0
	for _, b := range initials {
		if b < o.base(rec.Config)-1e-12 {
			better++
		}
	}
	if better > 3 {
		t.Errorf("SHA winner ranked %d/27 by base error; expected near-best", better+1)
	}
}

func TestSHATruncatesAtBudget(t *testing.T) {
	o := newTestOracle(0)
	s := smallSettings()
	s.Budget.TotalRounds = 500 // only the first rung of N=81 fits (405)
	h := SuccessiveHalving{N: 81, R0: 5}.Run(o, DefaultSpace(), s, rng.New(17))
	if h.RoundsConsumed() > 500 {
		t.Errorf("SHA exceeded budget: %d", h.RoundsConsumed())
	}
	if h.Len() != 81 {
		t.Errorf("expected exactly the first rung (81 obs), got %d", h.Len())
	}
}

func TestHyperbandPlan(t *testing.T) {
	plans := hyperbandPlan(405, smallSettings())
	wantN := []int{81, 34, 15, 8, 5}
	wantR0 := []int{5, 15, 45, 135, 405}
	if len(plans) != 5 {
		t.Fatalf("plans = %d", len(plans))
	}
	for i, p := range plans {
		if p.n != wantN[i] || p.r0 != wantR0[i] {
			t.Errorf("bracket %d = {n: %d, r0: %d}, want {%d, %d}", i, p.n, p.r0, wantN[i], wantR0[i])
		}
	}
}

func TestHyperbandRespectsBudget(t *testing.T) {
	o := newTestOracle(0.02)
	h := Hyperband{}.Run(o, DefaultSpace(), smallSettings(), rng.New(18))
	if h.RoundsConsumed() > 6480 {
		t.Errorf("HB consumed %d > 6480", h.RoundsConsumed())
	}
	if h.Len() == 0 {
		t.Fatal("HB produced no observations")
	}
	// Multiple fidelities must appear.
	fids := map[int]bool{}
	for _, obs := range h.All() {
		fids[obs.Rounds] = true
	}
	if len(fids) < 3 {
		t.Errorf("HB used only fidelities %v", fids)
	}
}

// TestHyperbandReservesHistoryOnce pins the run-wide reservation: the
// history's capacity is the planned observation count of all five brackets,
// not what per-bracket reservations leave behind (each of those copies the
// history so far, and the last bracket, which the paper budget cannot
// afford, would never have been counted).
func TestHyperbandReservesHistoryOnce(t *testing.T) {
	s := smallSettings()
	want := 0
	for _, p := range hyperbandPlan(405, s) {
		want += bracketObservations(p.n, len(rungLadder(p.r0, 405, s.Eta)), s.Eta)
	}
	for _, m := range []Method{Hyperband{}, BOHB{}} {
		h := m.Run(newTestOracle(0.02), DefaultSpace(), s, rng.New(18))
		if got := cap(h.recs); got != want || h.Len() >= want {
			t.Errorf("%s: history capacity %d with %d observations, want %d reserved and the last bracket unaffordable",
				m.Name(), got, h.Len(), want)
		}
	}
}

func TestHyperbandNoiselessQuality(t *testing.T) {
	o := newTestOracle(0)
	h := Hyperband{}.Run(o, DefaultSpace(), smallSettings(), rng.New(19))
	rec, _ := h.Recommend()
	if rec.True > 0.35 {
		t.Errorf("noiseless HB recommendation true error %.3f too high", rec.True)
	}
}

func TestBOHBRuns(t *testing.T) {
	o := newTestOracle(0.02)
	h := BOHB{}.Run(o, DefaultSpace(), smallSettings(), rng.New(20))
	if h.RoundsConsumed() > 6480 {
		t.Errorf("BOHB consumed %d", h.RoundsConsumed())
	}
	if h.Len() == 0 {
		t.Fatal("BOHB produced no observations")
	}
	rec, ok := h.Recommend()
	if !ok || rec.True > 0.5 {
		t.Errorf("BOHB recommendation = %+v", rec)
	}
}

func TestBOHBDeterminism(t *testing.T) {
	run := func() float64 {
		o := newTestOracle(0.05)
		h := BOHB{}.Run(o, DefaultSpace(), smallSettings(), rng.New(21))
		rec, _ := h.Recommend()
		return rec.True
	}
	if run() != run() {
		t.Error("BOHB not deterministic")
	}
}

func TestDPNoiseWrecksHyperband(t *testing.T) {
	// Observation 6: under severe DP, HB's many low-fidelity releases make
	// its selection near-random. Compare mean recommendation quality.
	quality := func(eps float64) float64 {
		total := 0.0
		for seed := uint64(0); seed < 10; seed++ {
			o := newTestOracle(0.01)
			o.seed = seed
			s := smallSettings()
			s.Epsilon = eps
			h := Hyperband{}.Run(o, DefaultSpace(), s, rng.New(400+seed))
			rec, _ := h.Recommend()
			total += rec.True
		}
		return total / 10
	}
	clean := quality(math.Inf(1))
	noisy := quality(0.05)
	if noisy <= clean {
		t.Errorf("strict-DP HB quality %.4f should be worse than clean %.4f", noisy, clean)
	}
}

// --- Proxy ---

// shiftedOracle has its optimum moved away from the base test oracle.
type shiftedOracle struct {
	testOracle
	shift float64
}

func (o *shiftedOracle) base(cfg fl.HParams) float64 {
	d := math.Abs(math.Log10(cfg.ServerLR)+3+o.shift)/6 + math.Abs(math.Log10(cfg.ClientLR)+1+o.shift)/6
	e := 0.08 + 0.5*d
	if e > 0.95 {
		e = 0.95
	}
	return e
}

func TestOneShotProxyRS(t *testing.T) {
	proxy := newTestOracle(0) // same surface: perfect transfer
	target := newTestOracle(0)
	m := OneShotProxyRS{Proxy: proxy}
	h := m.Run(target, DefaultSpace(), smallSettings(), rng.New(22))
	if h.Len() != 5 { // one per rung checkpoint
		t.Errorf("proxy observations = %d", h.Len())
	}
	rec, _ := h.Recommend()
	if rec.Rounds != 405 {
		t.Errorf("proxy recommendation fidelity = %d", rec.Rounds)
	}
	if rec.True > 0.35 {
		t.Errorf("proxy with perfect transfer got %.3f", rec.True)
	}
}

func TestProxyImmuneToTargetNoise(t *testing.T) {
	// Target noise must not change the proxy's chosen config.
	chosen := func(noise float64) fl.HParams {
		proxy := newTestOracle(0)
		target := newTestOracle(noise)
		h := OneShotProxyRS{Proxy: proxy}.Run(target, DefaultSpace(), smallSettings(), rng.New(23))
		rec, _ := h.Recommend()
		return rec.Config
	}
	if chosen(0) != chosen(0.5) {
		t.Error("proxy selection depended on target noise")
	}
}

func TestProxyPanicsWithoutProxy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OneShotProxyRS{}.Run(newTestOracle(0), DefaultSpace(), smallSettings(), rng.New(1))
}

// --- Budget / Settings ---

func TestBudgetScaled(t *testing.T) {
	b := DefaultBudget().Scaled(0.2)
	if b.MaxPerConfig != 81 || b.TotalRounds != 1296 || b.K != 16 {
		t.Errorf("scaled = %+v", b)
	}
	if err := b.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBudgetValidate(t *testing.T) {
	if err := (Budget{TotalRounds: 10, MaxPerConfig: 20, K: 1}).Validate(); err == nil {
		t.Error("per-config > total accepted")
	}
}

func TestSettingsNormalize(t *testing.T) {
	s := Settings{}.Normalize()
	if !math.IsInf(s.Epsilon, 1) || s.Eta != 3 || s.Brackets != 5 {
		t.Errorf("normalized = %+v", s)
	}
	if s.Budget != DefaultBudget() {
		t.Errorf("budget = %+v", s.Budget)
	}
}

func TestMethodNames(t *testing.T) {
	names := map[string]Method{
		"RS": RandomSearch{}, "Grid": GridSearch{}, "TPE": TPE{},
		"SHA": SuccessiveHalving{}, "HB": Hyperband{}, "BOHB": BOHB{},
	}
	for want, m := range names {
		if m.Name() != want {
			t.Errorf("Name() = %q, want %q", m.Name(), want)
		}
	}
}

func rng4() *rng.RNG { return rng.New(4) }

func rngSeed(s uint64) *rng.RNG { return rng.New(s) }
