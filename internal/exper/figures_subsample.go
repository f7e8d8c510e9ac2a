package exper

import (
	"fmt"
	"math"
	"slices"

	"noisyeval/internal/core"
	"noisyeval/internal/hpo"
	"noisyeval/internal/plot"
	"noisyeval/internal/stats"
)

// sweep is one noise-sweep figure: RS with K configs at every evaluation
// subsample size of every dataset, one series per value of a second noise
// field, median and quartiles of the final full validation error over
// bootstrap trials. Adding a sweep is adding a row to sweeps.
type sweep struct {
	title  string
	header []string
	series []sweepSeries
	// noise is a cell's setting: the swept field at v, count clients
	// sampled per evaluation; stream is the cell's stream-label format over
	// (dataset, v, count).
	noise  func(v float64, count int) core.Noise
	stream string
	// bestHPs adds the "Best HPs" reference (the pool's lowest full
	// validation error) to the chart title and as the last CSV column.
	bestHPs bool
}

// sweepSeries is one line of a chart: the swept field held at v, the legend
// label, and the CSV cell under the field's column ("" when the header has
// no such column: Figure 3's single series).
type sweepSeries struct {
	v           float64
	label, cell string
}

var sweeps = map[string]sweep{
	"figure3": {
		title:   "Figure 3: RS final error vs evaluation subsample size",
		header:  []string{"dataset", "clients", "median_err_pct", "q1_pct", "q3_pct", "best_hps_pct"},
		series:  []sweepSeries{{label: "RS"}},
		noise:   func(_ float64, n int) core.Noise { return core.Noise{SampleCount: n} },
		stream:  "fig3-%[1]s-%[3]d", // no swept value to name
		bestHPs: true,
	},
	"figure4": {
		title:  "Figure 4: data heterogeneity (iid fraction p) x subsampling",
		header: []string{"dataset", "p", "clients", "median_err_pct", "q1_pct", "q3_pct"},
		series: []sweepSeries{{0, "p=0", "0"}, {0.5, "p=0.5", "0.5"}, {1, "p=1", "1"}},
		noise:  func(p float64, n int) core.Noise { return core.Noise{SampleCount: n, HeterogeneityP: p} },
		stream: "fig4-%s-%g-%d",
	},
	"figure6": {
		title:  "Figure 6: systems heterogeneity (selection bias b) x subsampling",
		header: []string{"dataset", "b", "clients", "median_err_pct", "q1_pct", "q3_pct"},
		series: []sweepSeries{{0, "b=0", "0"}, {1, "b=1", "1"}, {1.5, "b=1.5", "1.5"}, {3, "b=3", "3"}},
		noise:  func(b float64, n int) core.Noise { return core.Noise{SampleCount: n, Bias: b} },
		stream: "fig6-%s-%g-%d",
	},
	"figure9": {
		title:  "Figure 9: privacy budget x subsampling",
		header: []string{"dataset", "epsilon", "clients", "median_err_pct", "q1_pct", "q3_pct"},
		series: []sweepSeries{
			{0.1, "eps=0.1", "eps=0.1"}, {1, "eps=1", "eps=1"}, {10, "eps=10", "eps=10"},
			{100, "eps=100", "eps=100"}, {math.Inf(1), "eps=inf", "eps=inf"},
		},
		noise:  func(eps float64, n int) core.Noise { return core.Noise{SampleCount: n, Epsilon: eps} },
		stream: "fig9-%s-%g-%d",
	},
}

// runSweep is the driver behind every row of sweeps.
func (s *Suite) runSweep(id string) Result {
	sw := sweeps[id]
	res := Result{ID: id, Title: sw.title, CSVHeader: slices.Clone(sw.header)}
	for _, name := range DatasetNames {
		bank := s.Bank(name)
		ch := plot.Chart{Title: name, XLabel: "evaluation clients sampled (log)", LogX: true}
		var best float64
		if sw.bestHPs {
			full, _ := fullErrors(bank)
			best = stats.Min(full)
			ch.Title = fmt.Sprintf("%s (best HPs: %s%% err)", name, pct(best))
		}
		counts := subsampleCounts(name, bank.NumClients())
		for _, ss := range sw.series {
			ser := plot.Series{Label: ss.label}
			for _, cnt := range counts {
				c := s.cell(bank, hpo.RandomSearch{}, sw.noise(ss.v, cnt), s.Cfg.Trials, fmt.Sprintf(sw.stream, name, ss.v, cnt))
				row := []string{name}
				if ss.cell != "" {
					row = append(row, ss.cell)
				}
				row = append(row, fmt.Sprintf("%d", cnt))
				row = append(row, addPoint(&ser, float64(cnt), core.FinalErrors(c.must()))...)
				if sw.bestHPs {
					row = append(row, plot.F(best*100))
				}
				res.CSVRows = append(res.CSVRows, row)
			}
			ch.Series = append(ch.Series, ser)
		}
		res.addChart(ch, "clients")
	}
	return res
}

// Figure3 reproduces the client-subsampling experiment: RS with K configs at
// several evaluation subsample sizes, median and quartiles of final full
// validation error over bootstrap trials, plus the "Best HPs" reference.
func Figure3(s *Suite) Result { return s.runSweep("figure3") }

// Figure4 reproduces the data-heterogeneity experiment: RS at three eval
// partitions p ∈ {0, 0.5, 1} (natural → iid) across subsample sizes.
func Figure4(s *Suite) Result { return s.runSweep("figure4") }

// Figure6 reproduces the systems-heterogeneity experiment: biased client
// selection with weight (a+δ)^b for b ∈ {0, 1, 1.5, 3} across subsample
// sizes.
func Figure6(s *Suite) Result { return s.runSweep("figure6") }

// Figure9 reproduces the privacy experiment: RS with evaluation privacy
// budgets ε ∈ {0.1, 1, 10, 100, ∞} across subsample sizes.
func Figure9(s *Suite) Result { return s.runSweep("figure9") }

// Figure5 reproduces the budget-tradeoff experiment: RS true-error curves
// versus cumulative training rounds at several subsample sizes.
func Figure5(s *Suite) Result {
	res := Result{ID: "figure5", Title: "Figure 5: RS error vs training budget under subsampling"}
	res.CSVHeader = []string{"dataset", "clients", "budget_rounds", "median_err_pct", "q1_pct", "q3_pct"}
	budgets := budgetGrid(s.Cfg)
	for _, name := range DatasetNames {
		bank := s.Bank(name)
		var series []plot.Series
		for _, cnt := range figure5Counts(name, bank.NumClients()) {
			c := s.cell(bank, hpo.RandomSearch{}, core.Noise{SampleCount: cnt}, s.Cfg.Trials, fmt.Sprintf("fig5-%s-%d", name, cnt))
			label, clients := fmt.Sprintf("%d clients", cnt), fmt.Sprintf("%d", cnt)
			series = append(series, budgetCurve(&res, []string{name, clients}, label, c.must(), budgets, true))
		}
		res.addChart(plot.Chart{Title: name, XLabel: budgetAxis, Series: series}, "")
	}
	return res
}

// figure5Counts mirrors the paper's Figure-5 legend: one client, a small
// cohort, and the full pool.
func figure5Counts(name string, nVal int) []int {
	small := 3
	if name == "stackoverflow" || name == "reddit" {
		small = max(2, int(math.Round(0.01*float64(nVal))))
	}
	counts := []int{1}
	if small > 1 && small < nVal {
		counts = append(counts, small)
	}
	return append(counts, nVal)
}

// Figure13 reproduces the search-space-width experiment (Appendix C): RS
// with a large budget over nested server-lr ranges spanning 1–4 decades, in
// a noiseless versus a high-noise (1-client, ε=10) setting.
func Figure13(s *Suite) Result {
	res := Result{ID: "figure13", Title: "Figure 13: search-space width vs noise (Appendix C)"}
	res.CSVHeader = []string{"dataset", "decades", "setting", "median_err_pct", "q1_pct", "q3_pct"}
	settings := []evalSetting{
		{"noiseless", "noiseless", core.Noiseless()},
		{"noisy", "noisy (1 client, eps=10)", core.Noise{SampleCount: 1, Epsilon: 10}},
	}
	for _, name := range s.Cfg.Fig13Datasets {
		series := make([]plot.Series, len(settings))
		for i, setting := range settings {
			series[i].Label = setting.long
		}
		for _, d := range fig13Decades {
			bank := s.DecadeBank(name, d)
			for i, setting := range settings {
				c := s.cell(bank, hpo.RandomSearch{}, setting.noise, s.Cfg.Trials, fmt.Sprintf("fig13-%s-%d-%s", name, d, setting.label))
				// Large-K RS over the decade bank's own space: the paper
				// uses K = 128 (the full pool).
				c.space = hpo.DefaultSpace().WithServerLRDecades(float64(d))
				k := len(bank.Configs)
				c.base = hpo.Settings{Budget: hpo.Budget{TotalRounds: k * s.Cfg.MaxRounds, MaxPerConfig: s.Cfg.MaxRounds, K: k}}
				cells := addPoint(&series[i], float64(d), core.FinalErrors(c.must()))
				res.CSVRows = append(res.CSVRows, append([]string{name, fmt.Sprintf("%d", d), setting.label}, cells...))
			}
		}
		res.addChart(plot.Chart{Title: name, XLabel: "server-lr range (decades)", Series: series}, "decades")
	}
	return res
}
