package exper

import (
	"fmt"
	"math"

	"noisyeval/internal/core"
	"noisyeval/internal/hpo"
	"noisyeval/internal/plot"
	"noisyeval/internal/rng"
	"noisyeval/internal/stats"
)

// methodSet returns the four tuning methods of the study.
func methodSet() []hpo.Method {
	return []hpo.Method{hpo.RandomSearch{}, hpo.TPE{}, hpo.Hyperband{}, hpo.BOHB{}}
}

// noisySetting is the paper's combined-noise configuration for the method
// comparison figures: 1% client subsampling with ε = 100 evaluation privacy.
func noisySetting() core.Noise {
	return core.Noise{SampleFraction: 0.01, Epsilon: 100}
}

// runMethodTrials runs a method for several trials on a bank under a noise
// setting, returning the per-trial histories.
func (s *Suite) runMethodTrials(name string, m hpo.Method, noise core.Noise, seedLabel string) []core.TrialResult {
	bank := s.Bank(name)
	oracle, err := core.NewBankOracle(bank, noise.HeterogeneityP, noise.Scheme(), s.Cfg.Seed)
	if err != nil {
		panic(err)
	}
	tn := core.Tuner{Method: m, Space: hpo.DefaultSpace(), Settings: noise.Settings(s.Cfg.Settings())}
	return tn.RunTrials(oracle, s.Cfg.MethodTrials, rng.New(s.Cfg.Seed).Split(seedLabel))
}

// Figure8 reproduces the method-comparison budget curves: RS, HB, TPE, BOHB
// under noiseless versus noisy (1% subsample + ε=100) evaluation, median and
// quartiles over trials.
func Figure8(s *Suite) Result {
	res := Result{ID: "figure8", Title: "Figure 8: methods under noiseless vs noisy evaluation"}
	res.CSVHeader = []string{"dataset", "setting", "method", "budget_rounds", "median_err_pct", "q1_pct", "q3_pct"}
	budgets := budgetGrid(s.Cfg)
	for _, name := range DatasetNames {
		for _, setting := range []struct {
			label string
			noise core.Noise
		}{
			{"noiseless", core.Noiseless()},
			{"noisy", noisySetting()},
		} {
			var series []plot.Series
			for _, m := range methodSet() {
				results := s.runMethodTrials(name, m, setting.noise, fmt.Sprintf("fig8-%s-%s-%s", name, setting.label, m.Name()))
				ser := plot.Series{Label: m.Name()}
				for _, b := range budgets {
					vals := core.CurveAt(results, b)
					sum := stats.Summarize(vals)
					ser.X = append(ser.X, float64(b))
					ser.Y = append(ser.Y, sum.Median)
					ser.YLo = append(ser.YLo, sum.Q1)
					ser.YHi = append(ser.YHi, sum.Q3)
					res.CSVRows = append(res.CSVRows, []string{
						name, setting.label, m.Name(), fmt.Sprintf("%d", b),
						plot.F(sum.Median * 100), plot.F(sum.Q1 * 100), plot.F(sum.Q3 * 100),
					})
				}
				series = append(series, ser)
			}
			ch := plot.Chart{
				Title:  fmt.Sprintf("%s (%s)", name, setting.label),
				XLabel: "total training rounds", YLabel: "full validation error",
				Series: series,
			}
			res.Lines = append(res.Lines, ch.Render()...)
			res.Lines = append(res.Lines, "")
		}
	}
	return res
}

// methodBars computes the method-comparison bars at a fixed budget under the
// full-eval and noisy settings (Figures 15/16, and Figure 1's layout).
func (s *Suite) methodBars(name string, budget int, figLabel string) ([]plot.Bar, [][]string) {
	var bars []plot.Bar
	var rows [][]string
	for _, setting := range []struct {
		label string
		noise core.Noise
	}{
		{"full eval, non-private", core.Noiseless()},
		{"1% clients, eps=100", noisySetting()},
	} {
		for _, m := range methodSet() {
			results := s.runMethodTrials(name, m, setting.noise, fmt.Sprintf("%s-%s-%s-%s", figLabel, name, setting.label, m.Name()))
			med := stats.Median(curveAtOrFinal(results, budget))
			bars = append(bars, plot.Bar{Label: m.Name(), Tag: setting.label, Value: med * 100})
			rows = append(rows, []string{name, setting.label, m.Name(), fmt.Sprintf("%d", budget), plot.F(med * 100)})
		}
	}
	return bars, rows
}

func curveAtOrFinal(results []core.TrialResult, budget int) []float64 {
	return core.CurveAt(results, budget)
}

// Figure15 reproduces the method bars at one third of the budget (the paper
// uses 2000 of 6480 rounds).
func Figure15(s *Suite) Result {
	return s.methodBarsFigure("figure15", "Figure 15: methods at 1/3 budget", s.Cfg.K*s.Cfg.MaxRounds/3)
}

// Figure16 reproduces the method bars at the full budget (6480 rounds).
func Figure16(s *Suite) Result {
	return s.methodBarsFigure("figure16", "Figure 16: methods at full budget", s.Cfg.K*s.Cfg.MaxRounds)
}

func (s *Suite) methodBarsFigure(id, title string, budget int) Result {
	res := Result{ID: id, Title: title}
	res.CSVHeader = []string{"dataset", "setting", "method", "budget_rounds", "median_err_pct"}
	for _, name := range DatasetNames {
		bars, rows := s.methodBars(name, budget, id)
		res.CSVRows = append(res.CSVRows, rows...)
		bc := plot.BarChart{Title: fmt.Sprintf("%s @ %d rounds (median %% error)", name, budget), Unit: "%", Bars: bars}
		res.Lines = append(res.Lines, bc.Render()...)
		res.Lines = append(res.Lines, "")
	}
	return res
}

// Figure1 reproduces the headline bar chart: CIFAR10 error of RS, TPE, HB,
// BOHB and proxy RS under noiseless vs noisy evaluation at one third of the
// tuning budget (highlighting the early advantage of HB/BOHB that noise
// destroys).
func Figure1(s *Suite) Result {
	res := Result{ID: "figure1", Title: "Figure 1: CIFAR10 at 1/3 budget, noiseless vs noisy"}
	res.CSVHeader = []string{"method", "setting", "median_err_pct"}
	budget := s.Cfg.K * s.Cfg.MaxRounds / 3
	name := "cifar10"

	var bars []plot.Bar
	for _, setting := range []struct {
		label string
		noise core.Noise
	}{
		{"noiseless", core.Noiseless()},
		{"noisy", noisySetting()},
	} {
		for _, m := range methodSet() {
			results := s.runMethodTrials(name, m, setting.noise, fmt.Sprintf("fig1-%s-%s", setting.label, m.Name()))
			med := stats.Median(core.CurveAt(results, budget))
			bars = append(bars, plot.Bar{Label: m.Name(), Tag: setting.label, Value: med * 100})
			res.CSVRows = append(res.CSVRows, []string{m.Name(), setting.label, plot.F(med * 100)})
		}
	}
	// RS (Proxy): tune on the FEMNIST-like proxy (the matching image task),
	// train the single winner on CIFAR10 — identical in both settings since
	// proxy tuning never touches client evaluations.
	proxyErr := s.oneShotProxyMedian("femnist", name, "fig1-proxy")
	for _, setting := range []string{"noiseless", "noisy"} {
		bars = append(bars, plot.Bar{Label: "RS(Proxy)", Tag: setting, Value: proxyErr * 100})
		res.CSVRows = append(res.CSVRows, []string{"RS(Proxy)", setting, plot.F(proxyErr * 100)})
	}
	bc := plot.BarChart{Title: "CIFAR10 full validation error (median %, 1/3 budget)", Unit: "%", Bars: bars}
	res.Lines = append(res.Lines, bc.Render()...)
	return res
}

// oneShotProxyMedian runs the one-shot proxy RS (tune on proxyName, train on
// clientName) for Trials bootstrap trials and returns the median final true
// error on the client dataset.
func (s *Suite) oneShotProxyMedian(proxyName, clientName, seedLabel string) float64 {
	proxyBank := s.Bank(proxyName)
	clientBank := s.Bank(clientName)
	proxyOracle, err := core.NewBankOracle(proxyBank, 0, core.Noiseless().Scheme(), s.Cfg.Seed)
	if err != nil {
		panic(err)
	}
	clientOracle, err := core.NewBankOracle(clientBank, 0, core.Noiseless().Scheme(), s.Cfg.Seed)
	if err != nil {
		panic(err)
	}
	g := rng.New(s.Cfg.Seed).Split(seedLabel)
	finals := make([]float64, s.Cfg.Trials)
	m := hpo.OneShotProxyRS{Proxy: proxyOracle}
	for t := range finals {
		h := m.Run(clientOracle, hpo.DefaultSpace(), s.Cfg.Settings(), g.Splitf("trial-%d", t))
		rec, ok := h.Recommend()
		if !ok {
			finals[t] = 1
			continue
		}
		finals[t] = rec.True
	}
	return stats.Median(finals)
}

// Figure2Scenario quantifies the schematic of Figure 2: how often noisy
// evaluation (subsampling + DP) flips the ranking of two configurations
// whose true errors differ by the given gap. Returned value is the flip
// probability; the paper's diagram depicts one such flip.
func Figure2Scenario(s *Suite, name string, gap float64, noise core.Noise, trials int) float64 {
	bank := s.Bank(name)
	oracle, err := core.NewBankOracle(bank, 0, noise.Scheme(), s.Cfg.Seed)
	if err != nil {
		panic(err)
	}
	// Pick the pool pair whose true-error difference is closest to gap.
	maxR := bank.MaxRounds()
	bestI, bestJ, bestDiff := -1, -1, math.Inf(1)
	for i := range bank.Configs {
		for j := i + 1; j < len(bank.Configs); j++ {
			ei := oracle.TrueError(bank.Configs[i], maxR)
			ej := oracle.TrueError(bank.Configs[j], maxR)
			if d := math.Abs(math.Abs(ei-ej) - gap); d < bestDiff {
				bestI, bestJ, bestDiff = i, j, d
			}
		}
	}
	better, worse := bank.Configs[bestI], bank.Configs[bestJ]
	if oracle.TrueError(better, maxR) > oracle.TrueError(worse, maxR) {
		better, worse = worse, better
	}
	g := rng.New(s.Cfg.Seed).Split("fig2")
	dpp := noise.Settings(s.Cfg.Settings())
	flips := 0
	for t := 0; t < trials; t++ {
		o := oracle.WithTrial(t)
		eb := o.Evaluate(better, maxR, fmt.Sprintf("t%d", t))
		ew := o.Evaluate(worse, maxR, fmt.Sprintf("t%d", t))
		if noise.Private() {
			scale := dpp.Epsilon // total budget
			_ = scale
			pp := noiseDP(dpp.Epsilon, s.Cfg.K, o.SampleSize())
			eb += g.Splitf("b%d", t).Laplace(0, pp)
			ew += g.Splitf("w%d", t).Laplace(0, pp)
		}
		if eb > ew {
			flips++
		}
	}
	return float64(flips) / float64(trials)
}

// noiseDP returns the per-release Laplace scale M/(ε|S|).
func noiseDP(epsilon float64, m, sampleSize int) float64 {
	if math.IsInf(epsilon, 1) {
		return 0
	}
	return float64(m) / (epsilon * float64(sampleSize))
}
