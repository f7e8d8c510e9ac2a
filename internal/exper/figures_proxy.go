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

// Figure7 reproduces the client-heterogeneity scatter: each pool config at
// (x = full validation error, y = minimum client error). Datasets whose
// configs reach near-zero client error while performing poorly globally
// (CIFAR10, Reddit) are the ones where biased selection is catastrophic.
func Figure7(s *Suite) Result {
	res := Result{ID: "figure7", Title: "Figure 7: full error vs minimum client error (128 configs)"}
	res.CSVHeader = []string{"dataset", "config", "full_err_pct", "min_client_err_pct"}
	for _, name := range DatasetNames {
		bank := s.Bank(name)
		var points []plot.ScatterPoint
		for ci := range bank.Configs {
			errs, err := bank.ClientErrors(0, ci, bank.MaxRounds())
			if err != nil {
				panic(err)
			}
			full := weightedMean(errs, bank.ExampleCounts[0], true)
			minC := stats.Min(errs)
			points = append(points, plot.ScatterPoint{X: full * 100, Y: minC * 100})
			res.CSVRows = append(res.CSVRows, []string{
				name, fmt.Sprintf("%d", ci), plot.F(full * 100), plot.F(minC * 100),
			})
		}
		sc := plot.Scatter{
			Title:  name,
			XLabel: "full validation error (%)", YLabel: "min client error (%)",
			Points: points,
		}
		res.Lines = append(res.Lines, sc.Render()...)
		res.Lines = append(res.Lines, "")
	}
	return res
}

// transferPairs returns the dataset pairs of Figure 10 (matched task types)
// and Figure 14 (mismatched).
func transferPairs(figure string) [][2]string {
	if figure == "figure10" {
		return [][2]string{{"cifar10", "femnist"}, {"stackoverflow", "reddit"}}
	}
	return [][2]string{{"cifar10", "reddit"}, {"femnist", "stackoverflow"}}
}

// transferScatter renders config error pairs across two datasets (the banks
// share one config pool, so point i is the same configuration trained
// separately on each dataset).
func (s *Suite) transferScatter(id, title string, pairs [][2]string) Result {
	res := Result{ID: id, Title: title}
	res.CSVHeader = []string{"dataset_x", "dataset_y", "config", "err_x_pct", "err_y_pct"}
	for _, pair := range pairs {
		bx, by := s.Bank(pair[0]), s.Bank(pair[1])
		var points []plot.ScatterPoint
		var xs, ys []float64
		n := minIntE(len(bx.Configs), len(by.Configs))
		for ci := 0; ci < n; ci++ {
			ex, err := bx.ClientErrors(0, ci, bx.MaxRounds())
			if err != nil {
				panic(err)
			}
			ey, err := by.ClientErrors(0, ci, by.MaxRounds())
			if err != nil {
				panic(err)
			}
			fx := weightedMean(ex, bx.ExampleCounts[0], true)
			fy := weightedMean(ey, by.ExampleCounts[0], true)
			points = append(points, plot.ScatterPoint{X: fx * 100, Y: fy * 100})
			xs = append(xs, fx)
			ys = append(ys, fy)
			res.CSVRows = append(res.CSVRows, []string{
				pair[0], pair[1], fmt.Sprintf("%d", ci), plot.F(fx * 100), plot.F(fy * 100),
			})
		}
		rho := stats.Spearman(xs, ys)
		sc := plot.Scatter{
			Title:  fmt.Sprintf("%s vs %s (Spearman %.2f)", pair[0], pair[1], rho),
			XLabel: pair[0] + " error (%)", YLabel: pair[1] + " error (%)",
			Points: points,
		}
		res.Lines = append(res.Lines, sc.Render()...)
		res.Lines = append(res.Lines, "")
	}
	return res
}

// Figure10 reproduces the matched-pair HP transfer scatter.
func Figure10(s *Suite) Result {
	return s.transferScatter("figure10", "Figure 10: HP transfer across matched dataset pairs", transferPairs("figure10"))
}

// Figure14 reproduces the mismatched-pair transfer scatter (Appendix C).
func Figure14(s *Suite) Result {
	return s.transferScatter("figure14", "Figure 14: HP transfer across mismatched pairs", transferPairs("figure14"))
}

// Figure11 reproduces the one-shot proxy RS matrix: for every (proxy,
// client) dataset pair, the median client error of configs selected purely
// on the proxy.
func Figure11(s *Suite) Result {
	res := Result{ID: "figure11", Title: "Figure 11: one-shot proxy RS across dataset pairs"}
	res.CSVHeader = []string{"client", "proxy", "median_err_pct", "q1_pct", "q3_pct", "self_tuned_pct"}
	for _, client := range DatasetNames {
		var bars []plot.Bar
		selfTuned := stats.Median(s.runRSOnBank(client, core.Noiseless(), s.Cfg.Trials, "fig11-self-"+client))
		for _, proxy := range DatasetNames {
			finals := s.proxyTrialFinals(proxy, client, "fig11-"+proxy+"-"+client)
			sum := stats.Summarize(finals)
			bars = append(bars, plot.Bar{Label: proxy, Value: sum.Median * 100})
			res.CSVRows = append(res.CSVRows, []string{
				client, proxy, plot.F(sum.Median * 100), plot.F(sum.Q1 * 100), plot.F(sum.Q3 * 100), plot.F(selfTuned * 100),
			})
		}
		bc := plot.BarChart{
			Title: fmt.Sprintf("client=%s (self-tuned noiseless RS: %s%%)", client, pct(selfTuned)),
			Unit:  "%", Bars: bars,
		}
		res.Lines = append(res.Lines, bc.Render()...)
		res.Lines = append(res.Lines, "")
	}
	return res
}

// proxyTrialFinals runs bootstrap one-shot proxy RS trials.
func (s *Suite) proxyTrialFinals(proxyName, clientName, seedLabel string) []float64 {
	proxyOracle, err := core.NewBankOracle(s.Bank(proxyName), 0, core.Noiseless().Scheme(), s.Cfg.Seed)
	if err != nil {
		panic(err)
	}
	clientOracle, err := core.NewBankOracle(s.Bank(clientName), 0, core.Noiseless().Scheme(), s.Cfg.Seed)
	if err != nil {
		panic(err)
	}
	m := hpo.OneShotProxyRS{Proxy: proxyOracle}
	g := rng.New(s.Cfg.Seed).Split(seedLabel)
	finals := make([]float64, s.Cfg.Trials)
	for t := range finals {
		h := m.Run(clientOracle, hpo.DefaultSpace(), s.Cfg.Settings(), g.Splitf("trial-%d", t))
		if rec, ok := h.Recommend(); ok {
			finals[t] = rec.True
		} else {
			finals[t] = 1
		}
	}
	return finals
}

// Figure12 reproduces the proxy-vs-noisy-evaluation comparison: RS budget
// curves at 1% subsampling under ε ∈ {1, 10, ∞}, against the one-shot proxy
// baselines from every proxy dataset.
func Figure12(s *Suite) Result {
	res := Result{ID: "figure12", Title: "Figure 12: noisy tuning vs one-shot proxy RS"}
	res.CSVHeader = []string{"client", "series", "budget_rounds", "median_err_pct"}
	budgets := budgetGrid(s.Cfg)
	epsilons := []float64{1, 10, math.Inf(1)}
	for _, client := range DatasetNames {
		var series []plot.Series
		// Noisy-evaluation RS curves.
		for _, eps := range epsilons {
			label := fmt.Sprintf("RS eps=%g", eps)
			if math.IsInf(eps, 1) {
				label = "RS eps=inf"
			}
			noise := core.Noise{SampleFraction: 0.01, Epsilon: eps}
			oracle, err := core.NewBankOracle(s.Bank(client), 0, noise.Scheme(), s.Cfg.Seed)
			if err != nil {
				panic(err)
			}
			tn := core.Tuner{Method: hpo.RandomSearch{}, Space: hpo.DefaultSpace(), Settings: noise.Settings(s.Cfg.Settings())}
			results := tn.RunTrials(oracle, s.Cfg.Trials, rng.New(s.Cfg.Seed).Splitf("fig12-%s-%v", client, eps))
			ser := plot.Series{Label: label}
			for _, b := range budgets {
				med := stats.Median(core.CurveAt(results, b))
				ser.X = append(ser.X, float64(b))
				ser.Y = append(ser.Y, med)
				res.CSVRows = append(res.CSVRows, []string{client, label, fmt.Sprintf("%d", b), plot.F(med * 100)})
			}
			series = append(series, ser)
		}
		// Proxy baselines: flat lines at the proxy-chosen config's final
		// error (a single model trained with the chosen HPs).
		for _, proxy := range DatasetNames {
			finals := s.proxyTrialFinals(proxy, client, "fig12-proxy-"+proxy+"-"+client)
			med := stats.Median(finals)
			ser := plot.Series{Label: "proxy=" + proxy}
			for _, b := range budgets {
				ser.X = append(ser.X, float64(b))
				ser.Y = append(ser.Y, med)
			}
			res.CSVRows = append(res.CSVRows, []string{client, "proxy=" + proxy, "final", plot.F(med * 100)})
			series = append(series, ser)
		}
		ch := plot.Chart{
			Title:  client,
			XLabel: "total training rounds", YLabel: "full validation error",
			Series: series,
		}
		res.Lines = append(res.Lines, ch.Render()...)
		res.Lines = append(res.Lines, "")
	}
	return res
}

func minIntE(a, b int) int {
	if a < b {
		return a
	}
	return b
}
