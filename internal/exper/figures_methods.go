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

// evalSetting is one evaluation setting of a noiseless-vs-noisy figure,
// named label in CSV cells and stream labels and long in legends.
type evalSetting struct {
	label, long string
	noise       core.Noise
}

// evalSettings is the method-comparison figures' pair: noiseless, and the
// paper's combined noise — 1% client subsampling with ε = 100 evaluation
// privacy. Figures 15 and 16 name a setting by long throughout.
var evalSettings = []evalSetting{
	{"noiseless", "full eval, non-private", core.Noiseless()},
	{"noisy", "1% clients, eps=100", core.Noise{SampleFraction: 0.01, Epsilon: 100}},
}

// Figure8 reproduces the method-comparison budget curves: RS, HB, TPE, BOHB
// under noiseless versus noisy (1% subsample + ε=100) evaluation, median and
// quartiles over trials.
func Figure8(s *Suite) Result {
	res := Result{ID: "figure8", Title: "Figure 8: methods under noiseless vs noisy evaluation"}
	res.CSVHeader = []string{"dataset", "setting", "method", "budget_rounds", "median_err_pct", "q1_pct", "q3_pct"}
	budgets := budgetGrid(s.Cfg)
	for _, name := range DatasetNames {
		for _, setting := range evalSettings {
			var series []plot.Series
			for _, m := range methodSet() {
				c := s.cell(s.Bank(name), m, setting.noise, s.Cfg.MethodTrials, fmt.Sprintf("fig8-%s-%s-%s", name, setting.label, m.Name()))
				series = append(series, budgetCurve(&res, []string{name, setting.label, m.Name()}, m.Name(), c.must(), budgets, true))
			}
			res.addChart(plot.Chart{Title: fmt.Sprintf("%s (%s)", name, setting.label), XLabel: budgetAxis, Series: series}, "")
		}
	}
	return res
}

// methodBars runs every method on one dataset under both evaluation settings
// and returns one bar per (setting, method): the median error at a fixed
// budget, tagged with the setting's long or short label (Figures 15/16, and
// Figure 1's layout). Stream labels are stream-<setting>-<method>.
func (s *Suite) methodBars(name string, budget int, stream string, long bool) []plot.Bar {
	var bars []plot.Bar
	for _, setting := range evalSettings {
		tag := setting.label
		if long {
			tag = setting.long
		}
		for _, m := range methodSet() {
			c := s.cell(s.Bank(name), m, setting.noise, s.Cfg.MethodTrials, fmt.Sprintf("%s-%s-%s", stream, tag, m.Name()))
			med := stats.Median(core.CurveAt(c.must(), budget))
			bars = append(bars, plot.Bar{Label: m.Name(), Tag: tag, Value: med * 100})
		}
	}
	return bars
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
		bars := s.methodBars(name, budget, id+"-"+name, true)
		for _, bar := range bars {
			res.CSVRows = append(res.CSVRows, []string{name, bar.Tag, bar.Label, fmt.Sprintf("%d", budget), plot.F(bar.Value)})
		}
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
	bars := s.methodBars("cifar10", s.Cfg.K*s.Cfg.MaxRounds/3, "fig1", false)
	// RS (Proxy): tune on the FEMNIST-like proxy (the matching image task),
	// train the single winner on CIFAR10 — identical in both settings since
	// proxy tuning never touches client evaluations.
	proxyErr := stats.Median(s.proxyTrialFinals("femnist", "cifar10", "fig1-proxy"))
	for _, setting := range evalSettings {
		bars = append(bars, plot.Bar{Label: "RS(Proxy)", Tag: setting.label, Value: proxyErr * 100})
	}
	for _, bar := range bars {
		res.CSVRows = append(res.CSVRows, []string{bar.Label, bar.Tag, plot.F(bar.Value)})
	}
	bc := plot.BarChart{Title: "CIFAR10 full validation error (median %, 1/3 budget)", Unit: "%", Bars: bars}
	res.Lines = append(res.Lines, bc.Render()...)
	return res
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
	trueErr := make([]float64, len(bank.Configs))
	for i := range trueErr {
		trueErr[i] = oracle.TrueErrorAt(i, maxR)
	}
	bestI, bestJ, bestDiff := -1, -1, math.Inf(1)
	for i, ei := range trueErr {
		for j := i + 1; j < len(trueErr); j++ {
			if d := math.Abs(math.Abs(ei-trueErr[j]) - gap); d < bestDiff {
				bestI, bestJ, bestDiff = i, j, d
			}
		}
	}
	better, worse := bank.Configs[bestI], bank.Configs[bestJ]
	if trueErr[bestI] > trueErr[bestJ] {
		better, worse = worse, better
	}
	g := rng.New(s.Cfg.Seed).Split("fig2")
	flips := 0
	for t := 0; t < trials; t++ {
		o := oracle.WithTrial(t)
		eb := o.Evaluate(better, maxR, fmt.Sprintf("t%d", t))
		ew := o.Evaluate(worse, maxR, fmt.Sprintf("t%d", t))
		if noise.Private() {
			// Per-release Laplace scale M/(ε|S|): the total budget ε split
			// over the run's M = K releases.
			pp := float64(s.Cfg.K) / (noise.Epsilon * float64(o.SampleSize()))
			eb += g.Splitf("b%d", t).Laplace(0, pp)
			ew += g.Splitf("w%d", t).Laplace(0, pp)
		}
		if eb > ew {
			flips++
		}
	}
	return float64(flips) / float64(trials)
}
