package noisyeval_test

import (
	"runtime/debug"
	"testing"

	"noisyeval"
	"noisyeval/internal/core"
)

// TestBenchmarkAllocs pins the allocation count of the step each named root
// benchmark times, built by the helper the benchmark itself uses. A count,
// unlike a timing, does not depend on the machine, so this is where a root
// benchmark is checked. testing.AllocsPerRun runs each step at GOMAXPROCS 1
// and floors the mean over its runs; the collector is off while it does, so
// a GC that empties a sync.Pool mid-measure adds nothing and the counts are
// exact. The training round, the row kernels (the biased one at the bench
// shape too, so its weight table is paid once per oracle, not per visit) and
// the instrumented warm trial must not allocate at all; the other bounds are the counts measured
// when the pin was added (Go 1.24), so one more allocation per step fails.
// The trial benchmarks' per-trial budget is TestRunTrialsAllocsPerTrial's.
func TestBenchmarkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of what is put back")
	}
	for _, c := range []struct {
		bench string
		runs  int
		bound float64
		step  func(t *testing.T) func()
	}{
		{"FederatedRound", 20, 0, func(t *testing.T) func() {
			tr := roundTrainer(t)
			t.Cleanup(func() {
				if tr.Diverged() {
					t.Error("the trainer diverged: its rounds did no work")
				}
			})
			return tr.Round
		}},
		{"OracleEvaluateMulti", 100, 0, func(t *testing.T) func() {
			return rowSweeps(evaluateRows(t, noisyeval.SchemeWithCount(10)))
		}},
		{"OracleEvaluateMultiBiased", 20, 0, func(t *testing.T) func() {
			return rowSweeps(evaluateRows(t, core.Noise{SampleCount: 3, Bias: 1.5}.Scheme()))
		}},
		{"OracleEvaluateBiasedBenchShape/cohorts=1", 200, 0, func(t *testing.T) func() {
			return rowSweeps(evaluateRowsOf(t, biasShapeBank, core.Noise{SampleCount: 3, Bias: 1.5}.Scheme(), 1))
		}},
		{"OracleEvaluateBiasedBenchShape/cohorts=64", 20, 0, func(t *testing.T) func() {
			return rowSweeps(evaluateRowsOf(t, biasShapeBank, core.Noise{SampleCount: 3, Bias: 1.5}.Scheme(), rowCohorts))
		}},
		{"ObsOverhead", 1000, 0, func(t *testing.T) func() {
			step := instrumentedEvaluate(t)
			return func() { step() }
		}},
		{"BankBuild", 10, 561, func(t *testing.T) func() {
			build := bankBuild(t)
			return func() { build(1) }
		}},
		{"BankOpenMmap", 200, 17, func(t *testing.T) func() { return openMapped(t) }},
		{"ServeRun", 200, 116, func(t *testing.T) func() { return dedupPost(t, serveBenchManager(t)) }},
		// The page's cost does not depend on how many runs the registry
		// retains (TestListCostIndependentOfHistory), so 100 stand in for
		// the benchmark's 10 000.
		{"ServeList", 200, 19, func(t *testing.T) func() { return listPage(t, 100) }},
	} {
		t.Run("Benchmark"+c.bench, func(t *testing.T) {
			step := c.step(t)
			allocs := allocsPerRun(c.runs, step)
			if allocs > c.bound {
				t.Errorf("allocs/op = %v, bound %v", allocs, c.bound)
			}
		})
	}
}

// allocsPerRun is testing.AllocsPerRun with the garbage collector off.
func allocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// rowSweeps adapts a row-kernel step to AllocsPerRun, walking the rows as the
// benchmark does.
func rowSweeps(sweep func(i int) float64) func() {
	i := 0
	return func() {
		sweep(i)
		i++
	}
}
