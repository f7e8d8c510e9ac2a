package noisyeval_test

import (
	"os"
	"path/filepath"
	"runtime"
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
		{"MethodTrials/hb", 20, 136, func(t *testing.T) func() { return seeded(methodTrials(t, "hb")) }},
		{"MethodTrials/bohb", 20, 136, func(t *testing.T) func() { return seeded(methodTrials(t, "bohb")) }},
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

// TestBankRenderBytes pins the bytes rendering a bank container allocates
// against the bytes it renders, on the benchmark's bank: MarshalShardV4 and
// SaveBankV4 append the arena straight into the one image they build, so
// neither holds it twice (a second copy reads about 2x). What remains is
// the image's size-class rounding and, for a file, the commit segment's
// metadata, rendered before the image is sized.
func TestBankRenderBytes(t *testing.T) {
	b := codecBenchBank
	shard := &core.BankShard{Lo: 0, Hi: len(b.Configs), Errs: b.Errs, Diverged: b.Diverged}
	img, err := core.MarshalShardV4(shard)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.bank")
	if err := core.SaveBankV4(b, path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		size int64
		step func() error
	}{
		{"MarshalShardV4", int64(len(img)), func() error { _, err := core.MarshalShardV4(shard); return err }},
		{"SaveBankV4", fi.Size(), func() error { return core.SaveBankV4(b, path) }},
	} {
		const runs, bound = 5, 1.05
		per, err := bytesPerRun(runs, c.step)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := per / float64(c.size); ratio > bound {
			t.Errorf("%s allocates %.3fx the %d bytes it renders, bound %v", c.name, ratio, c.size, bound)
		}
	}
}

// bytesPerRun is the mean of the bytes f allocates over runs calls, with the
// garbage collector off.
func bytesPerRun(runs int, f func() error) (float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if err := f(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs), nil
}

// allocsPerRun is testing.AllocsPerRun with the garbage collector off.
func allocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// rowSweeps adapts a row-kernel step to AllocsPerRun, walking the rows as the
// benchmark does.
func rowSweeps(sweep func(i int) float64) func() {
	return seeded(func(i int) { sweep(i) })
}

// seeded adapts a step indexed by the iteration, as its benchmark runs it,
// to AllocsPerRun.
func seeded(step func(i int)) func() {
	i := 0
	return func() {
		step(i)
		i++
	}
}
