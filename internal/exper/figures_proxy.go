package exper

import (
	"fmt"
	"math"

	"noisyeval/internal/core"
	"noisyeval/internal/hpo"
	"noisyeval/internal/plot"
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
		full, clients := fullErrors(s.Bank(name))
		var points []plot.ScatterPoint
		for ci, errs := range clients {
			minC := stats.Min(errs)
			points = append(points, plot.ScatterPoint{X: full[ci] * 100, Y: minC * 100})
			res.CSVRows = append(res.CSVRows, []string{
				name, fmt.Sprintf("%d", ci), plot.F(full[ci] * 100), plot.F(minC * 100),
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

// transferScatter renders config error pairs across two datasets (the banks
// share one config pool, so point i is the same configuration trained
// separately on each dataset).
func (s *Suite) transferScatter(id, title string, pairs [][2]string) Result {
	res := Result{ID: id, Title: title}
	res.CSVHeader = []string{"dataset_x", "dataset_y", "config", "err_x_pct", "err_y_pct"}
	for _, pair := range pairs {
		xs, _ := fullErrors(s.Bank(pair[0]))
		ys, _ := fullErrors(s.Bank(pair[1]))
		n := min(len(xs), len(ys))
		xs, ys = xs[:n], ys[:n]
		var points []plot.ScatterPoint
		for ci := range xs {
			points = append(points, plot.ScatterPoint{X: xs[ci] * 100, Y: ys[ci] * 100})
			res.CSVRows = append(res.CSVRows, []string{
				pair[0], pair[1], fmt.Sprintf("%d", ci), plot.F(xs[ci] * 100), plot.F(ys[ci] * 100),
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

// Figure10 reproduces the HP transfer scatter over the pairs of matched
// task types.
func Figure10(s *Suite) Result {
	return s.transferScatter("figure10", "Figure 10: HP transfer across matched dataset pairs", [][2]string{{"cifar10", "femnist"}, {"stackoverflow", "reddit"}})
}

// Figure14 reproduces the mismatched-pair transfer scatter (Appendix C).
func Figure14(s *Suite) Result {
	return s.transferScatter("figure14", "Figure 14: HP transfer across mismatched pairs", [][2]string{{"cifar10", "reddit"}, {"femnist", "stackoverflow"}})
}

// Figure11 reproduces the one-shot proxy RS matrix: for every (proxy,
// client) dataset pair, the median client error of configs selected purely
// on the proxy.
func Figure11(s *Suite) Result {
	res := Result{ID: "figure11", Title: "Figure 11: one-shot proxy RS across dataset pairs"}
	res.CSVHeader = []string{"client", "proxy", "median_err_pct", "q1_pct", "q3_pct", "self_tuned_pct"}
	for _, client := range DatasetNames {
		var bars []plot.Bar
		self := s.cell(s.Bank(client), hpo.RandomSearch{}, core.Noiseless(), s.Cfg.Trials, "fig11-self-"+client)
		selfTuned := stats.Median(core.FinalErrors(self.must()))
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

// proxyTrialFinals runs bootstrap one-shot proxy RS trials: the cell whose
// method tunes on proxyName's noiseless oracle and trains the single winner
// on clientName.
func (s *Suite) proxyTrialFinals(proxyName, clientName, stream string) []float64 {
	proxy, err := core.NewBankOracle(s.Bank(proxyName), 0, core.Noiseless().Scheme(), s.Cfg.Seed)
	if err != nil {
		panic(err)
	}
	c := s.cell(s.Bank(clientName), hpo.OneShotProxyRS{Proxy: proxy}, core.Noiseless(), s.Cfg.Trials, stream)
	return core.FinalErrors(c.must())
}

// Figure12 reproduces the proxy-vs-noisy-evaluation comparison: RS budget
// curves at 1% subsampling under ε ∈ {1, 10, ∞}, against the one-shot proxy
// baselines from every proxy dataset.
func Figure12(s *Suite) Result {
	res := Result{ID: "figure12", Title: "Figure 12: noisy tuning vs one-shot proxy RS"}
	res.CSVHeader = []string{"client", "series", "budget_rounds", "median_err_pct"}
	budgets := budgetGrid(s.Cfg)
	epsilons := []sweepSeries{{v: 1, label: "RS eps=1"}, {v: 10, label: "RS eps=10"}, {v: math.Inf(1), label: "RS eps=inf"}}
	for _, client := range DatasetNames {
		var series []plot.Series
		// Noisy-evaluation RS curves.
		for _, eps := range epsilons {
			c := s.cell(s.Bank(client), hpo.RandomSearch{}, core.Noise{SampleFraction: 0.01, Epsilon: eps.v}, s.Cfg.Trials, fmt.Sprintf("fig12-%s-%v", client, eps.v))
			series = append(series, budgetCurve(&res, []string{client, eps.label}, eps.label, c.must(), budgets, false))
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
		res.addChart(plot.Chart{Title: client, XLabel: budgetAxis, Series: series}, "")
	}
	return res
}
