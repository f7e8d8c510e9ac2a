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

// Figure3 reproduces the client-subsampling experiment: RS with K configs at
// several evaluation subsample sizes, median and quartiles of final full
// validation error over bootstrap trials, plus the "Best HPs" reference.
func Figure3(s *Suite) Result {
	res := Result{ID: "figure3", Title: "Figure 3: RS final error vs evaluation subsample size"}
	res.CSVHeader = []string{"dataset", "clients", "median_err_pct", "q1_pct", "q3_pct", "best_hps_pct"}
	for _, name := range DatasetNames {
		bank := s.Bank(name)
		counts := subsampleCounts(name, bank.NumClients())
		series := plot.Series{Label: "RS"}
		best := bestPoolError(bank, true)
		for _, cnt := range counts {
			noise := core.Noise{SampleCount: cnt}
			finals := s.runRSOnBank(name, noise, s.Cfg.Trials, fmt.Sprintf("fig3-%s-%d", name, cnt))
			sum := stats.Summarize(finals)
			series.X = append(series.X, float64(cnt))
			series.Y = append(series.Y, sum.Median)
			series.YLo = append(series.YLo, sum.Q1)
			series.YHi = append(series.YHi, sum.Q3)
			res.CSVRows = append(res.CSVRows, []string{
				name, fmt.Sprintf("%d", cnt), plot.F(sum.Median * 100), plot.F(sum.Q1 * 100), plot.F(sum.Q3 * 100), plot.F(best * 100),
			})
		}
		ch := plot.Chart{
			Title:  fmt.Sprintf("%s (best HPs: %s%% err)", name, pct(best)),
			XLabel: "evaluation clients sampled (log)", YLabel: "full validation error",
			LogX:   true,
			Series: []plot.Series{series},
		}
		res.Lines = append(res.Lines, ch.Render()...)
		tblLines, _, _ := renderSeriesTable("", "clients", []plot.Series{series})
		res.Lines = append(res.Lines, tblLines...)
		res.Lines = append(res.Lines, "")
	}
	return res
}

// Figure4 reproduces the data-heterogeneity experiment: RS at three eval
// partitions p ∈ {0, 0.5, 1} (natural → iid) across subsample sizes.
func Figure4(s *Suite) Result {
	res := Result{ID: "figure4", Title: "Figure 4: data heterogeneity (iid fraction p) x subsampling"}
	res.CSVHeader = []string{"dataset", "p", "clients", "median_err_pct", "q1_pct", "q3_pct"}
	ps := []float64{0, 0.5, 1}
	for _, name := range DatasetNames {
		bank := s.Bank(name)
		counts := subsampleCounts(name, bank.NumClients())
		var series []plot.Series
		for _, p := range ps {
			ser := plot.Series{Label: fmt.Sprintf("p=%g", p)}
			for _, cnt := range counts {
				noise := core.Noise{SampleCount: cnt, HeterogeneityP: p}
				finals := s.runRSOnBank(name, noise, s.Cfg.Trials, fmt.Sprintf("fig4-%s-%g-%d", name, p, cnt))
				sum := stats.Summarize(finals)
				ser.X = append(ser.X, float64(cnt))
				ser.Y = append(ser.Y, sum.Median)
				ser.YLo = append(ser.YLo, sum.Q1)
				ser.YHi = append(ser.YHi, sum.Q3)
				res.CSVRows = append(res.CSVRows, []string{
					name, fmt.Sprintf("%g", p), fmt.Sprintf("%d", cnt),
					plot.F(sum.Median * 100), plot.F(sum.Q1 * 100), plot.F(sum.Q3 * 100),
				})
			}
			series = append(series, ser)
		}
		ch := plot.Chart{
			Title:  name,
			XLabel: "evaluation clients sampled (log)", YLabel: "full validation error",
			LogX:   true,
			Series: series,
		}
		res.Lines = append(res.Lines, ch.Render()...)
		tblLines, _, _ := renderSeriesTable("", "clients", series)
		res.Lines = append(res.Lines, tblLines...)
		res.Lines = append(res.Lines, "")
	}
	return res
}

// Figure5 reproduces the budget-tradeoff experiment: RS true-error curves
// versus cumulative training rounds at several subsample sizes.
func Figure5(s *Suite) Result {
	res := Result{ID: "figure5", Title: "Figure 5: RS error vs training budget under subsampling"}
	res.CSVHeader = []string{"dataset", "clients", "budget_rounds", "median_err_pct", "q1_pct", "q3_pct"}
	for _, name := range DatasetNames {
		bank := s.Bank(name)
		nVal := bank.NumClients()
		counts := figure5Counts(name, nVal)
		budgets := budgetGrid(s.Cfg)
		var series []plot.Series
		for _, cnt := range counts {
			noise := core.Noise{SampleCount: cnt}
			oracle, err := core.NewBankOracle(bank, 0, noise.Scheme(), s.Cfg.Seed)
			if err != nil {
				panic(err)
			}
			tn := s.Cfg.rsTuner()
			results := tn.RunTrials(oracle, s.Cfg.Trials, rng.New(s.Cfg.Seed).Splitf("fig5-%s-%d", name, cnt))
			ser := plot.Series{Label: fmt.Sprintf("%d clients", cnt)}
			for _, b := range budgets {
				vals := core.CurveAt(results, b)
				sum := stats.Summarize(vals)
				ser.X = append(ser.X, float64(b))
				ser.Y = append(ser.Y, sum.Median)
				ser.YLo = append(ser.YLo, sum.Q1)
				ser.YHi = append(ser.YHi, sum.Q3)
				res.CSVRows = append(res.CSVRows, []string{
					name, fmt.Sprintf("%d", cnt), fmt.Sprintf("%d", b),
					plot.F(sum.Median * 100), plot.F(sum.Q1 * 100), plot.F(sum.Q3 * 100),
				})
			}
			series = append(series, ser)
		}
		ch := plot.Chart{
			Title:  name,
			XLabel: "total training rounds", YLabel: "full validation error",
			Series: series,
		}
		res.Lines = append(res.Lines, ch.Render()...)
		res.Lines = append(res.Lines, "")
	}
	return res
}

// figure5Counts mirrors the paper's Figure-5 legend: one client, a small
// cohort, and the full pool.
func figure5Counts(name string, nVal int) []int {
	small := 3
	if name == "stackoverflow" || name == "reddit" {
		small = int(math.Round(0.01 * float64(nVal)))
		if small < 2 {
			small = 2
		}
	}
	counts := []int{1}
	if small > 1 && small < nVal {
		counts = append(counts, small)
	}
	return append(counts, nVal)
}

// budgetGrid returns the x-axis budget points for online-performance curves.
func budgetGrid(cfg Config) []int {
	total := cfg.K * cfg.MaxRounds
	var out []int
	for i := 1; i <= cfg.K; i++ {
		out = append(out, i*cfg.MaxRounds)
	}
	_ = total
	return out
}

// Figure6 reproduces the systems-heterogeneity experiment: biased client
// selection with weight (a+δ)^b for b ∈ {0, 1, 1.5, 3} across subsample
// sizes.
func Figure6(s *Suite) Result {
	res := Result{ID: "figure6", Title: "Figure 6: systems heterogeneity (selection bias b) x subsampling"}
	res.CSVHeader = []string{"dataset", "b", "clients", "median_err_pct", "q1_pct", "q3_pct"}
	biases := []float64{0, 1, 1.5, 3}
	for _, name := range DatasetNames {
		bank := s.Bank(name)
		counts := subsampleCounts(name, bank.NumClients())
		var series []plot.Series
		for _, b := range biases {
			ser := plot.Series{Label: fmt.Sprintf("b=%g", b)}
			for _, cnt := range counts {
				noise := core.Noise{SampleCount: cnt, Bias: b}
				finals := s.runRSOnBank(name, noise, s.Cfg.Trials, fmt.Sprintf("fig6-%s-%g-%d", name, b, cnt))
				sum := stats.Summarize(finals)
				ser.X = append(ser.X, float64(cnt))
				ser.Y = append(ser.Y, sum.Median)
				ser.YLo = append(ser.YLo, sum.Q1)
				ser.YHi = append(ser.YHi, sum.Q3)
				res.CSVRows = append(res.CSVRows, []string{
					name, fmt.Sprintf("%g", b), fmt.Sprintf("%d", cnt),
					plot.F(sum.Median * 100), plot.F(sum.Q1 * 100), plot.F(sum.Q3 * 100),
				})
			}
			series = append(series, ser)
		}
		ch := plot.Chart{
			Title:  name,
			XLabel: "evaluation clients sampled (log)", YLabel: "full validation error",
			LogX:   true,
			Series: series,
		}
		res.Lines = append(res.Lines, ch.Render()...)
		tblLines, _, _ := renderSeriesTable("", "clients", series)
		res.Lines = append(res.Lines, tblLines...)
		res.Lines = append(res.Lines, "")
	}
	return res
}

// Figure9 reproduces the privacy experiment: RS with evaluation privacy
// budgets ε ∈ {0.1, 1, 10, 100, ∞} across subsample sizes.
func Figure9(s *Suite) Result {
	res := Result{ID: "figure9", Title: "Figure 9: privacy budget x subsampling"}
	res.CSVHeader = []string{"dataset", "epsilon", "clients", "median_err_pct", "q1_pct", "q3_pct"}
	epsilons := []float64{0.1, 1, 10, 100, math.Inf(1)}
	for _, name := range DatasetNames {
		bank := s.Bank(name)
		counts := subsampleCounts(name, bank.NumClients())
		var series []plot.Series
		for _, eps := range epsilons {
			label := fmt.Sprintf("eps=%g", eps)
			if math.IsInf(eps, 1) {
				label = "eps=inf"
			}
			ser := plot.Series{Label: label}
			for _, cnt := range counts {
				noise := core.Noise{SampleCount: cnt, Epsilon: eps}
				finals := s.runRSOnBank(name, noise, s.Cfg.Trials, fmt.Sprintf("fig9-%s-%v-%d", name, eps, cnt))
				sum := stats.Summarize(finals)
				ser.X = append(ser.X, float64(cnt))
				ser.Y = append(ser.Y, sum.Median)
				ser.YLo = append(ser.YLo, sum.Q1)
				ser.YHi = append(ser.YHi, sum.Q3)
				res.CSVRows = append(res.CSVRows, []string{
					name, label, fmt.Sprintf("%d", cnt),
					plot.F(sum.Median * 100), plot.F(sum.Q1 * 100), plot.F(sum.Q3 * 100),
				})
			}
			series = append(series, ser)
		}
		ch := plot.Chart{
			Title:  name,
			XLabel: "evaluation clients sampled (log)", YLabel: "full validation error",
			LogX:   true,
			Series: series,
		}
		res.Lines = append(res.Lines, ch.Render()...)
		tblLines, _, _ := renderSeriesTable("", "clients", series)
		res.Lines = append(res.Lines, tblLines...)
		res.Lines = append(res.Lines, "")
	}
	return res
}

// Figure13 reproduces the search-space-width experiment (Appendix C): RS
// with a large budget over nested server-lr ranges spanning 1–4 decades, in
// a noiseless versus a high-noise (1-client, ε=10) setting.
func Figure13(s *Suite) Result {
	res := Result{ID: "figure13", Title: "Figure 13: search-space width vs noise (Appendix C)"}
	res.CSVHeader = []string{"dataset", "decades", "setting", "median_err_pct", "q1_pct", "q3_pct"}
	decades := fig13Decades
	for _, name := range s.Cfg.Fig13Datasets {
		clean := plot.Series{Label: "noiseless"}
		noisy := plot.Series{Label: "noisy (1 client, eps=10)"}
		for _, d := range decades {
			bank := s.DecadeBank(name, d)
			for _, setting := range []struct {
				label string
				noise core.Noise
				ser   *plot.Series
			}{
				{"noiseless", core.Noiseless(), &clean},
				{"noisy", core.Noise{SampleCount: 1, Epsilon: 10}, &noisy},
			} {
				oracle, err := core.NewBankOracle(bank, 0, setting.noise.Scheme(), s.Cfg.Seed)
				if err != nil {
					panic(err)
				}
				// Large-K RS: the paper uses K = 128 (the full pool).
				tn := core.Tuner{Method: hpo.RandomSearch{}, Space: hpo.DefaultSpace().WithServerLRDecades(float64(d))}
				k := len(bank.Configs)
				tn.Settings = setting.noise.Settings(hpo.Settings{
					Budget: hpo.Budget{TotalRounds: k * s.Cfg.MaxRounds, MaxPerConfig: s.Cfg.MaxRounds, K: k},
				})
				results := tn.RunTrials(oracle, s.Cfg.Trials, rng.New(s.Cfg.Seed).Splitf("fig13-%s-%d-%s", name, d, setting.label))
				sum := stats.Summarize(core.FinalErrors(results))
				setting.ser.X = append(setting.ser.X, float64(d))
				setting.ser.Y = append(setting.ser.Y, sum.Median)
				setting.ser.YLo = append(setting.ser.YLo, sum.Q1)
				setting.ser.YHi = append(setting.ser.YHi, sum.Q3)
				res.CSVRows = append(res.CSVRows, []string{
					name, fmt.Sprintf("%d", d), setting.label,
					plot.F(sum.Median * 100), plot.F(sum.Q1 * 100), plot.F(sum.Q3 * 100),
				})
			}
		}
		ch := plot.Chart{
			Title:  name,
			XLabel: "server-lr range (decades)", YLabel: "full validation error",
			Series: []plot.Series{clean, noisy},
		}
		res.Lines = append(res.Lines, ch.Render()...)
		tblLines, _, _ := renderSeriesTable("", "decades", []plot.Series{clean, noisy})
		res.Lines = append(res.Lines, tblLines...)
		res.Lines = append(res.Lines, "")
	}
	return res
}
