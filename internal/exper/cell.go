package exper

import (
	"fmt"
	"slices"

	"noisyeval/internal/core"
	"noisyeval/internal/hpo"
	"noisyeval/internal/plot"
	"noisyeval/internal/rng"
	"noisyeval/internal/stats"
)

// cell is one point of the study's grid — a bank, a tuning method and a
// noise setting — run by the paper's bootstrap protocol: trials independent
// tuning runs. Every figure is a set of cells and RunTune is one; run and
// OpenTrial are the only places in the module that wire a bank oracle to a
// tuner.
//
// stream names the cell: trial i draws its method randomness from
// rng.New(seed).Split(stream).Split("trial-i"), so a label is part of the
// numbers drawn under it and must be distinct across a figure's cells
// (DESIGN.md §4 has the convention).
type cell struct {
	bank   *core.Bank
	method hpo.Method
	space  hpo.Space
	// noise picks the bank partition and the evaluation scheme, and folds
	// its DP budget into base.
	noise    core.Noise
	base     hpo.Settings
	trials   int
	seed     uint64 // roots the oracle's evaluation cohorts and the trial streams
	stream   string
	progress func(core.TrialResult, int) // optional: observes each finished trial
}

// settings returns the tuning settings the cell runs under.
func (c cell) settings() hpo.Settings { return c.noise.Settings(c.base) }

// oracle is the bank oracle every trial of the cell evaluates on (trial i on
// its WithTrial(i) cohorts).
func (c cell) oracle() (*core.BankOracle, error) {
	return core.NewBankOracle(c.bank, c.noise.HeterogeneityP, c.noise.Scheme(), c.seed)
}

func (c cell) run() ([]core.TrialResult, error) {
	oracle, err := c.oracle()
	if err != nil {
		return nil, err
	}
	tn := core.Tuner{Method: c.method, Space: c.space, Settings: c.settings()}
	return tn.RunTrialsProgress(oracle, c.trials, rng.New(c.seed).Split(c.stream), c.progress), nil
}

// must is run for the figure drivers, which report failure by panicking.
func (c cell) must() []core.TrialResult {
	results, err := c.run()
	if err != nil {
		panic(fmt.Sprintf("exper: cell %s: %v", c.stream, err))
	}
	return results
}

// cell returns a figure cell: the default search space, the config's budget
// and the suite seed.
func (s *Suite) cell(bank *core.Bank, m hpo.Method, noise core.Noise, trials int, stream string) cell {
	return cell{
		bank: bank, method: m, space: hpo.DefaultSpace(),
		noise: noise, base: s.Cfg.Settings(),
		trials: trials, seed: s.Cfg.Seed, stream: stream,
	}
}

// addPoint appends the median and quartiles of vals at x to ser and returns
// them as CSV cells, in percent.
func addPoint(ser *plot.Series, x float64, vals []float64) []string {
	sum := stats.Summarize(vals)
	ser.X = append(ser.X, x)
	ser.Y = append(ser.Y, sum.Median)
	ser.YLo = append(ser.YLo, sum.Q1)
	ser.YHi = append(ser.YHi, sum.Q3)
	return []string{plot.F(sum.Median * 100), plot.F(sum.Q1 * 100), plot.F(sum.Q3 * 100)}
}

// budgetGrid returns the x-axis budget points for online-performance curves.
func budgetGrid(cfg Config) []int {
	var out []int
	for i := 1; i <= cfg.K; i++ {
		out = append(out, i*cfg.MaxRounds)
	}
	return out
}

// budgetCurve summarises results at every budget point as one series and
// one CSV row each: prefix, the budget, then the median error — with band,
// its quartiles too.
func budgetCurve(res *Result, prefix []string, label string, results []core.TrialResult, budgets []int, band bool) plot.Series {
	ser := plot.Series{Label: label}
	for _, b := range budgets {
		cells := addPoint(&ser, float64(b), core.CurveAt(results, b))
		if !band {
			cells = cells[:1]
		}
		res.CSVRows = append(res.CSVRows, slices.Concat(prefix, []string{fmt.Sprintf("%d", b)}, cells))
	}
	if !band {
		ser.YLo, ser.YHi = nil, nil
	}
	return ser
}

// budgetAxis labels the x axis of the budget-curve figures.
const budgetAxis = "total training rounds"

// addChart appends a full-validation-error chart to the text and, when
// xName is set, the numeric table under it with that x column.
func (r *Result) addChart(ch plot.Chart, xName string) {
	ch.YLabel = "full validation error"
	r.Lines = append(r.Lines, ch.Render()...)
	if xName != "" {
		r.Lines = append(r.Lines, seriesTable(xName, ch.Series)...)
	}
	r.Lines = append(r.Lines, "")
}
