package core

import (
	"math"
	"testing"

	"noisyeval/internal/hpo"
	"noisyeval/internal/rng"
)

// TestMethodNoiseMatrix is the integration sweep: every tuning method runs
// against the tiny bank under every noise family, and each run must produce
// a valid recommendation within budget. This is the compatibility contract
// between internal/hpo and internal/core.
func TestMethodNoiseMatrix(t *testing.T) {
	b, _ := tinyBank(t)
	methods := map[string]hpo.Method{
		"rs":      hpo.RandomSearch{},
		"grid":    hpo.GridSearch{},
		"tpe":     hpo.TPE{},
		"sha":     hpo.SuccessiveHalving{N: 9, R0: 3},
		"hb":      hpo.Hyperband{},
		"bohb":    hpo.BOHB{},
		"reeval":  hpo.ResampledRS{Reps: 2},
		"noisybo": hpo.NoisyBO{},
	}
	noises := map[string]Noise{
		"noiseless":  {},
		"subsample":  {SampleCount: 1},
		"bias":       {SampleCount: 3, Bias: 3},
		"dp":         {SampleCount: 3, Epsilon: 1},
		"hetero":     {SampleCount: 3, HeterogeneityP: 0.5},
		"everything": {SampleCount: 1, Bias: 1.5, Epsilon: 10, HeterogeneityP: 1},
	}
	budget := hpo.Budget{TotalRounds: 12 * 27, MaxPerConfig: 27, K: 6}
	for mName, m := range methods {
		for nName, noise := range noises {
			t.Run(mName+"/"+nName, func(t *testing.T) {
				oracle, err := NewBankOracle(b, noise.HeterogeneityP, noise.Scheme(), 1)
				if err != nil {
					t.Fatal(err)
				}
				tn := Tuner{Method: m, Space: hpo.DefaultSpace(), Settings: noise.Settings(hpo.Settings{Budget: budget})}
				h := tn.Run(oracle.WithTrial(0), rng.New(11).Split(mName+nName))
				if h.Len() == 0 {
					t.Fatal("no observations")
				}
				if h.RoundsConsumed() > budget.TotalRounds {
					t.Errorf("budget exceeded: %d > %d", h.RoundsConsumed(), budget.TotalRounds)
				}
				rec, ok := h.Recommend()
				if !ok {
					t.Fatal("no recommendation")
				}
				if rec.True < 0 || rec.True > 1 || math.IsNaN(rec.True) {
					t.Errorf("true error = %v", rec.True)
				}
				// Every observed config must be a bank member (bank mode).
				for _, obs := range h.All() {
					if _, err := b.ConfigIndex(obs.Config); err != nil {
						t.Fatalf("non-pool config proposed: %v", err)
					}
				}
			})
		}
	}
}

// TestProxyMethodOnBanks runs one-shot proxy RS between two partitions of
// the same bank (stand-ins for two datasets sharing a config pool).
func TestProxyMethodOnBanks(t *testing.T) {
	b, _ := tinyBank(t)
	proxyOracle, err := NewBankOracle(b, 1, Noiseless().Scheme(), 1) // iid partition as "proxy"
	if err != nil {
		t.Fatal(err)
	}
	clientOracle, err := NewBankOracle(b, 0, Noiseless().Scheme(), 1)
	if err != nil {
		t.Fatal(err)
	}
	m := hpo.OneShotProxyRS{Proxy: proxyOracle}
	h := m.Run(clientOracle, hpo.DefaultSpace(), hpo.Settings{
		Budget: hpo.Budget{TotalRounds: 27 * 6, MaxPerConfig: 27, K: 6},
	}, rng.New(13))
	rec, ok := h.Recommend()
	if !ok {
		t.Fatal("no recommendation")
	}
	if rec.Rounds != b.MaxRounds() {
		t.Errorf("recommendation fidelity = %d", rec.Rounds)
	}
}

// TestTrialParallelismInvariance verifies trial results do not depend on
// GOMAXPROCS-driven scheduling (regression guard for the worker pool).
func TestTrialParallelismInvariance(t *testing.T) {
	b, _ := tinyBank(t)
	oracle, err := NewBankOracle(b, 0, Noise{SampleCount: 2}.Scheme(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tn := Tuner{
		Method:   hpo.Hyperband{},
		Space:    hpo.DefaultSpace(),
		Settings: hpo.Settings{Budget: hpo.Budget{TotalRounds: 12 * 27, MaxPerConfig: 27, K: 6}}.Normalize(),
	}
	run := func() []float64 {
		return FinalErrors(tn.RunTrials(oracle, 12, rng.New(17).Split("par")))
	}
	a, c := run(), run()
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("trial %d differs across runs: %v vs %v", i, a[i], c[i])
		}
	}
}

// TestBankOracleErrorPaths exercises panics on foreign configs.
func TestBankOracleErrorPaths(t *testing.T) {
	b, _ := tinyBank(t)
	oracle, err := NewBankOracle(b, 0, Noiseless().Scheme(), 1)
	if err != nil {
		t.Fatal(err)
	}
	foreign := hpo.DefaultSpace().Sample(rng.New(999))
	for name, fn := range map[string]func(){
		"evaluate":  func() { oracle.Evaluate(foreign, 27, "x") },
		"trueError": func() { oracle.TrueError(foreign, 27) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic for foreign config", name)
				}
			}()
			fn()
		}()
	}
}

// TestNoiseMatrixDegradation spot-checks the headline ordering at tiny
// scale: combined noise should not make tuning better than noiseless,
// measured by median over bootstrap trials.
func TestNoiseMatrixDegradation(t *testing.T) {
	b, _ := tinyBank(t)
	budget := hpo.Budget{TotalRounds: 8 * 27, MaxPerConfig: 27, K: 8}
	med := func(noise Noise) float64 {
		oracle, err := NewBankOracle(b, noise.HeterogeneityP, noise.Scheme(), 1)
		if err != nil {
			t.Fatal(err)
		}
		tn := Tuner{Method: hpo.RandomSearch{}, Space: hpo.DefaultSpace(), Settings: noise.Settings(hpo.Settings{Budget: budget})}
		return median(FinalErrors(tn.RunTrials(oracle, 40, rng.New(19).Splitf("deg-%s", noise))))
	}
	clean := med(Noise{})
	dirty := med(Noise{SampleCount: 1, Epsilon: 1})
	if dirty < clean-1e-9 {
		t.Errorf("combined noise median %.4f beats noiseless %.4f", dirty, clean)
	}
}

// TestRatesDivideByExampleCounts pins the division contract of bankfmt/v5:
// a rate is float64(count) / float64(examples), bit for bit the quotient the
// builder stored before counts replaced rates, and a client without examples
// has rate +0 whatever its count.
func TestRatesDivideByExampleCounts(t *testing.T) {
	examples := []int{3, 7, 0, 194167, 1, 10}
	row := []uint32{1, 6, 0, 65537, 1, 3}
	got := ratesInto(nil, row, rateDivisors(examples))
	for k, n := range examples {
		want := 0.0
		if n > 0 {
			want = float64(row[k]) / float64(n)
		}
		if math.Float64bits(got[k]) != math.Float64bits(want) {
			t.Errorf("client %d: rate %v (bits %x), want %v (bits %x)", k, got[k], math.Float64bits(got[k]), want, math.Float64bits(want))
		}
	}
	row[2] = 5 // a count on an empty client still reads as rate 0
	if got := ratesInto(got, row, rateDivisors(examples)); got[2] != 0 || math.Signbit(got[2]) {
		t.Errorf("empty client rate = %v, want +0", got[2])
	}
}
