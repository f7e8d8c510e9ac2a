// Package exper contains one driver per table and figure of the paper's
// evaluation. Every driver consumes a Suite (the four dataset banks built
// with a shared config pool) and returns a Result holding the series the
// paper reports plus a text rendering; cmd/figures writes these to disk.
//
// See DESIGN.md §4 for the experiment index.
package exper

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"noisyeval/internal/core"
	"noisyeval/internal/data"
	"noisyeval/internal/fl"
	"noisyeval/internal/hpo"
	"noisyeval/internal/plot"
	"noisyeval/internal/rng"
)

// DatasetNames lists the study's datasets in the paper's order.
var DatasetNames = []string{"cifar10", "femnist", "stackoverflow", "reddit"}

// Config scales the reproduction. Defaults reproduce every figure at
// "figure scale" (client populations scaled to keep the full pipeline
// tractable on a laptop; subsample percentages preserved); Quick() is the
// miniature used by tests and benchmarks.
type Config struct {
	// Scales maps dataset name -> client-count scale factor.
	Scales map[string]float64
	// CapExamples truncates the per-client example tail (text datasets).
	CapExamples int
	// BankConfigs is the candidate pool size (paper: 128).
	BankConfigs int
	// MaxRounds is the per-config training budget (paper: 405).
	MaxRounds int
	// K is the RS/TPE config count (paper: 16).
	K int
	// Trials is the number of bootstrap RS trials per point (paper: 100).
	Trials int
	// MethodTrials is the number of tuning-run trials for the method
	// comparison figures (paper: 8).
	MethodTrials int
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds bank-build parallelism (0 = GOMAXPROCS).
	Workers int
	// Fig13Datasets lists datasets for the search-space-width experiment
	// (each needs its own per-decade banks; default cifar10 only).
	Fig13Datasets []string
	// Fig13Configs is the pool size per decade bank (paper: 128).
	Fig13Configs int
}

// Default returns figure-scale configuration.
func Default() Config {
	return Config{
		Scales: map[string]float64{
			"cifar10":       1.0,
			"femnist":       0.25,
			"stackoverflow": 0.1,
			"reddit":        0.05,
		},
		CapExamples:   500,
		BankConfigs:   128,
		MaxRounds:     405,
		K:             16,
		Trials:        100,
		MethodTrials:  8,
		Seed:          1,
		Fig13Datasets: []string{"cifar10"},
		Fig13Configs:  64,
	}
}

// Quick returns the miniature configuration used by tests and benchmarks:
// tiny populations, short training, few trials — every driver still runs
// end-to-end through the same code paths.
func Quick() Config {
	return Config{
		Scales: map[string]float64{
			"cifar10":       0.12,
			"femnist":       0.04,
			"stackoverflow": 0.004,
			"reddit":        0.0012,
		},
		CapExamples:   60,
		BankConfigs:   16,
		MaxRounds:     27,
		K:             8,
		Trials:        12,
		MethodTrials:  3,
		Seed:          1,
		Fig13Datasets: []string{"cifar10"},
		Fig13Configs:  12,
	}
}

// Budget returns the tuning budget implied by the config (paper: 16 × 405 =
// 6480 rounds).
func (c Config) Budget() hpo.Budget {
	return hpo.Budget{TotalRounds: c.K * c.MaxRounds, MaxPerConfig: c.MaxRounds, K: c.K}
}

// Settings returns baseline tuning settings (no DP).
func (c Config) Settings() hpo.Settings {
	return hpo.Settings{Budget: c.Budget(), Epsilon: math.Inf(1), Eta: 3, Brackets: 5}
}

// spec returns the scaled dataset spec.
func (c Config) spec(name string) data.Spec {
	var s data.Spec
	switch name {
	case "cifar10":
		s = data.CIFAR10Like()
	case "femnist":
		s = data.FEMNISTLike()
	case "stackoverflow":
		s = data.StackOverflowLike()
	case "reddit":
		s = data.RedditLike()
	default:
		panic(fmt.Sprintf("exper: unknown dataset %q", name))
	}
	scale, ok := c.Scales[name]
	if !ok {
		scale = 1
	}
	return s.Scaled(scale, c.CapExamples)
}

// Suite holds the populations and banks every figure driver consumes. Build
// it once (NewSuite) and reuse it across drivers; banks are built lazily and
// cached. Accessors are safe for concurrent use, and distinct banks build
// concurrently (the Scheduler relies on this to pipeline bank construction
// with driver execution): the suite mutex only guards map bookkeeping, while
// each population/bank carries its own once-guarded build slot.
type Suite struct {
	Cfg Config

	// store, when set, is consulted before building any bank and receives
	// every freshly built bank (content-addressed by core.BankKey).
	store *core.BankStore
	// bankBuilder, when set, overrides how banks come into existence (the
	// dist.Builder tier stack in cluster mode); nil means a LocalBuilder
	// over store. Every bank access — figure drivers, the scheduler's bank
	// tasks, RunTune — routes through it.
	bankBuilder core.BankBuilder

	mu    sync.Mutex
	pops  map[string]*popEntry
	banks map[string]*bankEntry
	// installed marks banks supplied via SetBank (external artifacts whose
	// build inputs are unknown; run keys fingerprint their content instead).
	installed map[string]bool
	// ready marks bank slots whose build has completed (BankReady reads it;
	// bankEntry.bank itself is only synchronized by the entry's once).
	ready map[string]bool
	pool  []fl.HParams // shared config pool across datasets
	// grownPools overrides the shared pool per dataset once GrowBank has
	// extended its bank (the union pool defines the new content address).
	grownPools map[string][]fl.HParams
	// bankKeys memoises bankKeyFor per dataset. Only GrowBank and SetBank
	// change a key after first use: both call invalidateBankKeyLocked, whose
	// keyGen bump keeps a key computed across them from being stored.
	bankKeys map[string]string
	keyGen   uint64

	// growMu serializes GrowBank per suite (growth is train-then-swap).
	growMu sync.Mutex

	builds atomic.Int64 // banks actually trained (cache hits excluded)
}

type popEntry struct {
	once sync.Once
	pop  *data.Population
}

type bankEntry struct {
	once sync.Once
	bank *core.Bank
}

// NewSuite prepares a suite (populations and banks are created on demand).
func NewSuite(cfg Config) *Suite {
	return &Suite{
		Cfg:        cfg,
		pops:       map[string]*popEntry{},
		banks:      map[string]*bankEntry{},
		installed:  map[string]bool{},
		ready:      map[string]bool{},
		grownPools: map[string][]fl.HParams{},
		bankKeys:   map[string]string{},
	}
}

// BankReady reports whether the bank slot for key is already resolved in
// this suite — built, loaded, or installed — without triggering a build.
// noisyevald's admission control uses it (together with the store) to
// classify a submission as warm or cold before deciding to shed it.
func (s *Suite) BankReady(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ready[key]
}

// SetStore attaches a content-addressed bank cache: Bank and DecadeBank
// consult it before training and write every fresh bank through it. Attach
// before the first bank access.
func (s *Suite) SetStore(st *core.BankStore) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store = st
}

// Store returns the attached bank cache (nil when none).
func (s *Suite) Store() *core.BankStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store
}

// SetBuilder attaches a bank builder (e.g. dist.Builder for cluster mode):
// all bank construction routes through it instead of the default
// local-store path. Attach before the first bank access.
func (s *Suite) SetBuilder(b core.BankBuilder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bankBuilder = b
}

// builder resolves the effective bank builder: the attached one, else a
// LocalBuilder over the attached store (which may be nil — an always-miss
// cache, preserving pre-dist behavior exactly).
func (s *Suite) builder() core.BankBuilder {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bankBuilder != nil {
		return s.bankBuilder
	}
	return core.LocalBuilder{Store: s.store}
}

// BankBuilds returns how many banks this suite actually trained (loads from
// the store or banks installed via SetBank do not count). cmd/figures uses
// it to prove a warm-cache run did zero training.
func (s *Suite) BankBuilds() int64 { return s.builds.Load() }

// SharedPool returns the config pool shared by all dataset banks.
func (s *Suite) SharedPool() []fl.HParams {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sharedPoolLocked()
}

func (s *Suite) sharedPoolLocked() []fl.HParams {
	if s.pool == nil {
		s.pool = hpo.DefaultSpace().SampleN(s.Cfg.BankConfigs, rng.New(s.Cfg.Seed).Split("shared-pool"))
	}
	return s.pool
}

// Population returns (building if needed) the dataset population.
func (s *Suite) Population(name string) *data.Population {
	s.mu.Lock()
	e, ok := s.pops[name]
	if !ok {
		e = &popEntry{}
		s.pops[name] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		e.pop = data.MustGenerate(s.Cfg.spec(name), rng.New(s.Cfg.Seed).Split("pop-"+name))
	})
	return e.pop
}

// bankFor resolves the once-guarded slot for key, running build inside the
// slot's once. Distinct keys build concurrently; duplicate requests block on
// the first builder.
func (s *Suite) bankFor(key string, build func() *core.Bank) *core.Bank {
	s.mu.Lock()
	e, ok := s.banks[key]
	if !ok {
		e = &bankEntry{}
		s.banks[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.bank = build() })
	s.mu.Lock()
	s.ready[key] = true
	s.mu.Unlock()
	return e.bank
}

// buildCached routes one bank build through the suite's builder (local
// store by default, the dist tier stack in cluster mode), counting only
// actual training against BankBuilds. ctx carries the requesting run's
// trace, if any, so builders can record lookup/build spans.
func (s *Suite) buildCached(ctx context.Context, label string, pop *data.Population, opts core.BuildOptions, seed uint64) *core.Bank {
	b, hit, err := s.builder().BuildBank(ctx, pop, opts, seed)
	if err != nil {
		panic(fmt.Sprintf("exper: bank %s: %v", label, err))
	}
	if !hit {
		s.builds.Add(1)
	}
	return b
}

// BankBuildInputs returns the exact inputs Bank(name) hands to the bank
// builder: the scaled dataset spec, the build options (the dataset's
// effective config pool included — the shared pool, or the grown union once
// GrowBank has extended it), and the seed. Exposed so callers can compute the bank's content address
// (core.BankKey) — and from it a run key — without forcing the build; the
// population itself is deterministic in (spec, Cfg.Seed), so the
// spec/options/seed triple fully determines bank content.
func (s *Suite) BankBuildInputs(name string) (data.Spec, core.BuildOptions, uint64) {
	opts := core.DefaultBuildOptions()
	opts.NumConfigs = s.Cfg.BankConfigs
	opts.MaxRounds = s.Cfg.MaxRounds
	opts.Partitions = []float64{0.5, 1}
	opts.Workers = s.Cfg.Workers
	opts.Configs = s.poolFor(name)
	return s.Cfg.spec(name), opts, s.Cfg.Seed + uint64(len(name))
}

// Bank returns (building if needed) the dataset's config bank with
// partitions p ∈ {0, 0.5, 1} and the shared pool.
func (s *Suite) Bank(name string) *core.Bank {
	return s.BankCtx(context.Background(), name)
}

// BankCtx is Bank with a caller context: the ctx's obs.Trace (when present)
// receives the bank.lookup / bank.build spans of a cold build. Note the
// once-guarded slot means only the first caller's ctx observes the build;
// concurrent duplicates block and get no spans, which is the honest
// timeline (they didn't do the work).
func (s *Suite) BankCtx(ctx context.Context, name string) *core.Bank {
	return s.bankFor(name, func() *core.Bank {
		pop := s.Population(name)
		_, opts, seed := s.BankBuildInputs(name)
		return s.buildCached(ctx, name, pop, opts, seed)
	})
}

// KnownDataset reports whether name is one of the study's datasets.
func KnownDataset(name string) bool { return slices.Contains(DatasetNames, name) }

// SetBank installs a pre-built bank (cmd/figures loads banks built by
// cmd/bank). The bank's pool becomes the shared pool if none is set yet.
func (s *Suite) SetBank(name string, b *core.Bank) {
	e := &bankEntry{bank: b}
	e.once.Do(func() {}) // mark resolved
	s.mu.Lock()
	defer s.mu.Unlock()
	s.banks[name] = e
	s.installed[name] = true
	s.ready[name] = true
	s.invalidateBankKeyLocked(name)
	if s.pool == nil {
		s.pool = b.Configs
	}
}

// installedBank returns the bank SetBank supplied for name, if any.
func (s *Suite) installedBank(name string) (*core.Bank, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.installed[name] {
		return nil, false
	}
	return s.banks[name].bank, true
}

// DecadeBank returns the Figure-13 bank for (dataset, decades): its own pool
// sampled from the nested server-lr space.
func (s *Suite) DecadeBank(name string, decades int) *core.Bank {
	key := fmt.Sprintf("%s-d%d", name, decades)
	return s.bankFor(key, func() *core.Bank {
		pop := s.Population(name)
		opts := core.DefaultBuildOptions()
		opts.NumConfigs = s.Cfg.Fig13Configs
		opts.MaxRounds = s.Cfg.MaxRounds
		opts.Workers = s.Cfg.Workers
		opts.Space = hpo.DefaultSpace().WithServerLRDecades(float64(decades))
		return s.buildCached(context.Background(), key, pop, opts, s.Cfg.Seed+uint64(100+decades))
	})
}

// Result is a rendered experiment outcome.
type Result struct {
	ID    string // "figure3", "table1", ...
	Title string
	// Lines is the text rendering (charts + numbers).
	Lines []string
	// CSVHeader/CSVRows hold the underlying numbers for results/<id>.csv.
	CSVHeader []string
	CSVRows   [][]string
}

// Text returns the rendering as one string.
func (r Result) Text() string {
	var b strings.Builder
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// paperCounts holds the paper's per-dataset raw evaluation-client counts;
// the last is the full validation pool.
var paperCounts = map[string][]int{
	"cifar10":       {1, 3, 9, 27, 100},
	"femnist":       {1, 3, 9, 27, 81, 360},
	"stackoverflow": {1, 9, 81, 729, 3678},
	"reddit":        {1, 9, 81, 729, 10000},
}

// subsampleCounts returns the paper's per-dataset raw evaluation-client
// counts scaled to the suite's pool size (deduplicated, ascending, ending at
// the full pool: the paper's last count is its full pool). name is one of
// DatasetNames.
func subsampleCounts(name string, nVal int) []int {
	counts := paperCounts[name]
	scale := float64(nVal) / float64(counts[len(counts)-1])
	var out []int
	seen := map[int]bool{}
	for _, c := range counts {
		v := min(max(int(math.Round(float64(c)*scale)), 1), nVal)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// fullErrors returns, per pool config, the full weighted validation error
// (Eq. 2) on the natural partition at max fidelity — the "Best HPs" line of
// Figure 3 is its minimum — and the per-client errors it aggregates.
func fullErrors(b *core.Bank) (full []float64, clients [][]float64) {
	weights := make([]float64, b.NumClients())
	for k, n := range b.ExampleCounts[0] {
		weights[k] = float64(n)
	}
	for ci := range b.Configs {
		errs, err := b.ClientErrors(0, ci, b.MaxRounds())
		if err != nil {
			panic(err)
		}
		full = append(full, fl.WeightedError(errs, weights, nil))
		clients = append(clients, errs)
	}
	return full, clients
}

// pct formats an error as percent.
func pct(x float64) string { return fmt.Sprintf("%.2f", 100*x) }

// seriesTable renders the numeric table under a chart.
func seriesTable(xName string, series []plot.Series) []string {
	tbl := plot.Table{Columns: []string{xName, "series", "median_err_pct", "q1_pct", "q3_pct"}}
	for _, ser := range series {
		for i := range ser.X {
			lo, hi := ser.Y[i], ser.Y[i]
			if ser.YLo != nil {
				lo, hi = ser.YLo[i], ser.YHi[i]
			}
			tbl.Rows = append(tbl.Rows, []string{fmt.Sprintf("%g", ser.X[i]), ser.Label, plot.F(ser.Y[i] * 100), plot.F(lo * 100), plot.F(hi * 100)})
		}
	}
	return tbl.Render()
}
