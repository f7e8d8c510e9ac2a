package exper

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"noisyeval/internal/core"
)

var (
	quickSuiteOnce sync.Once
	quickSuiteVal  *Suite
)

// quickSuite shares one miniature suite across the test binary (banks are
// the expensive part; every driver reuses them). When NOISYEVAL_CACHE_DIR is
// set (CI persists it across runs), banks come from the content-addressed
// store instead of being retrained — cached and fresh banks are identical,
// so test outcomes don't depend on cache state.
func quickSuite(t *testing.T) *Suite {
	t.Helper()
	quickSuiteOnce.Do(func() {
		quickSuiteVal = NewSuite(Quick())
		if dir := os.Getenv("NOISYEVAL_CACHE_DIR"); dir != "" {
			if store, err := core.NewBankStore(dir); err == nil {
				quickSuiteVal.SetStore(store)
			}
		}
	})
	return quickSuiteVal
}

func checkResult(t *testing.T, r Result, wantID string) {
	t.Helper()
	if r.ID != wantID {
		t.Errorf("ID = %q, want %q", r.ID, wantID)
	}
	if len(r.Lines) == 0 {
		t.Error("no rendering")
	}
	if len(r.CSVHeader) == 0 || len(r.CSVRows) == 0 {
		t.Error("no CSV data")
	}
	for i, row := range r.CSVRows {
		if len(row) != len(r.CSVHeader) {
			t.Errorf("CSV row %d has %d cells, header has %d", i, len(row), len(r.CSVHeader))
			break
		}
	}
	if r.Text() == "" {
		t.Error("empty text")
	}
}

// TestQuickBankFileSize pins bankfmt/v5's size at the scale cold_build and
// the quick figures use: the quick cifar10 bank (3 partitions x 16 configs x
// 4 checkpoints x 12 clients) stores one 4-byte count per value, so its
// arena is half of v4's float64 arena and the file fits 11 264 bytes (v4:
// 20 224).
func TestQuickBankFileSize(t *testing.T) {
	b := quickSuite(t).Bank("cifar10")
	path := filepath.Join(t.TempDir(), "cifar10.bank")
	if err := core.SaveBankV4(b, path); err != nil {
		t.Fatal(err)
	}
	info, err := core.InspectBank(path)
	if err != nil {
		t.Fatal(err)
	}
	values := int64(info.Dims[0] * info.Dims[1] * info.Dims[2] * info.Dims[3])
	if info.Dims != [4]int{len(b.Partitions), len(b.Configs), len(b.Rounds), b.NumClients()} || values == 0 {
		t.Fatalf("dims %v do not describe the bank", info.Dims)
	}
	var arena int64
	for _, s := range info.Segments {
		if s.Kind == "arena" {
			arena += s.Bytes
		}
	}
	if arena != 4*values || info.ArenaBytes != 4*values {
		t.Errorf("arena payload %d B, InspectBank.ArenaBytes %d B; want 4 x %d = %d", arena, info.ArenaBytes, values, 4*values)
	}
	if info.FileBytes > 11264 {
		t.Errorf("quick cifar10 bank file is %d B, want <= 11264", info.FileBytes)
	}
}

func TestQuickConfigShape(t *testing.T) {
	cfg := Quick()
	if cfg.Budget().TotalRounds != cfg.K*cfg.MaxRounds {
		t.Error("budget inconsistent")
	}
	if cfg.Settings().Eta != 3 {
		t.Error("eta default")
	}
}

func TestDefaultConfigMatchesPaperShape(t *testing.T) {
	cfg := Default()
	if cfg.BankConfigs != 128 || cfg.MaxRounds != 405 || cfg.K != 16 || cfg.Trials != 100 || cfg.MethodTrials != 8 {
		t.Errorf("default config diverged from the paper: %+v", cfg)
	}
	if cfg.Budget().TotalRounds != 6480 {
		t.Errorf("budget = %d, want 6480", cfg.Budget().TotalRounds)
	}
}

func TestSubsampleCounts(t *testing.T) {
	// At the paper's pool sizes the counts are the paper's.
	for name, paper := range paperCounts {
		if got := subsampleCounts(name, paper[len(paper)-1]); !reflect.DeepEqual(got, paper) {
			t.Errorf("%s at full scale: counts = %v, want %v", name, got, paper)
		}
	}
	// Scaled pools dedup, ascend, stay within range and end at the full
	// pool: every dataset at its quick and its default pool size.
	for _, tc := range []struct {
		cfg  Config
		want map[string][]int
	}{
		{Quick(), map[string][]int{
			"cifar10": {1, 3, 12}, "femnist": {1, 3, 14}, "stackoverflow": {1, 3, 15}, "reddit": {1, 12},
		}},
		{Default(), map[string][]int{
			"cifar10": {1, 3, 9, 27, 100}, "femnist": {1, 2, 7, 20, 90},
			"stackoverflow": {1, 8, 73, 368}, "reddit": {1, 4, 36, 496},
		}},
	} {
		for _, name := range DatasetNames {
			nVal := tc.cfg.spec(name).EvalClients
			if got := subsampleCounts(name, nVal); !reflect.DeepEqual(got, tc.want[name]) {
				t.Errorf("%s pool %d: counts = %v, want %v", name, nVal, got, tc.want[name])
			}
		}
	}
}

func TestSuiteSharedPoolAcrossBanks(t *testing.T) {
	s := quickSuite(t)
	b1 := s.Bank("cifar10")
	b2 := s.Bank("femnist")
	if len(b1.Configs) != len(b2.Configs) {
		t.Fatal("pool sizes differ")
	}
	for i := range b1.Configs {
		if b1.Configs[i] != b2.Configs[i] {
			t.Fatal("banks do not share the config pool")
		}
	}
}

func TestTableDatasets(t *testing.T) {
	r := TableDatasets(quickSuite(t))
	checkResult(t, r, "table1")
	joined := strings.Join(r.Lines, "\n")
	for _, name := range DatasetNames {
		if !strings.Contains(joined, name) {
			t.Errorf("table missing %s", name)
		}
	}
}

func TestFigure3SubsamplingMonotonicity(t *testing.T) {
	s := quickSuite(t)
	r := Figure3(s)
	checkResult(t, r, "figure3")
	// Observation 1: the full-evaluation median should not be worse than
	// the 1-client median on cifar10 (the paper's headline dataset).
	var oneClient, full float64
	for _, row := range r.CSVRows {
		if row[0] != "cifar10" {
			continue
		}
		if row[1] == "1" {
			oneClient = atof(t, row[2])
		}
		full = atof(t, row[2]) // last row wins = largest count
	}
	if oneClient < full-1e-9 {
		t.Errorf("1-client median %.3f better than full %.3f", oneClient, full)
	}
}

func TestFigure4Heterogeneity(t *testing.T) {
	r := Figure4(quickSuite(t))
	checkResult(t, r, "figure4")
	// All three partitions must appear.
	joined := strings.Join(r.Lines, "\n")
	for _, want := range []string{"p=0", "p=0.5", "p=1"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing series %q", want)
		}
	}
}

func TestFigure5BudgetCurves(t *testing.T) {
	cfg := Quick()
	r := Figure5(quickSuite(t))
	checkResult(t, r, "figure5")
	// Budgets must span K checkpoints.
	var budgets []string
	for _, row := range r.CSVRows {
		if row[0] == "cifar10" && row[1] == "1" {
			budgets = append(budgets, row[2])
		}
	}
	if len(budgets) != cfg.K {
		t.Errorf("budget points = %d, want %d", len(budgets), cfg.K)
	}
}

func TestFigure6Bias(t *testing.T) {
	r := Figure6(quickSuite(t))
	checkResult(t, r, "figure6")
	joined := strings.Join(r.Lines, "\n")
	for _, want := range []string{"b=0", "b=1", "b=1.5", "b=3"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing series %q", want)
		}
	}
}

func TestFigure7Scatter(t *testing.T) {
	s := quickSuite(t)
	r := Figure7(s)
	checkResult(t, r, "figure7")
	// One point per config per dataset.
	want := len(s.Bank("cifar10").Configs) * len(DatasetNames)
	if len(r.CSVRows) != want {
		t.Errorf("points = %d, want %d", len(r.CSVRows), want)
	}
	// min client error <= full error always.
	for _, row := range r.CSVRows {
		if atof(t, row[3]) > atof(t, row[2])+1e-9 {
			t.Errorf("min client error exceeds full error: %v", row)
		}
	}
}

func TestFigure8Methods(t *testing.T) {
	r := Figure8(quickSuite(t))
	checkResult(t, r, "figure8")
	joined := strings.Join(r.Lines, "\n")
	for _, m := range []string{"RS", "TPE", "HB", "BOHB"} {
		if !strings.Contains(joined, m) {
			t.Errorf("missing method %s", m)
		}
	}
	for _, setting := range []string{"noiseless", "noisy"} {
		if !strings.Contains(joined, setting) {
			t.Errorf("missing setting %s", setting)
		}
	}
}

func TestFigure9Privacy(t *testing.T) {
	r := Figure9(quickSuite(t))
	checkResult(t, r, "figure9")
	// Observation 5 in aggregate: the strictest privacy should not beat the
	// non-private setting on median error, averaged over datasets/counts.
	sums := map[string][]float64{}
	for _, row := range r.CSVRows {
		sums[row[1]] = append(sums[row[1]], atof(t, row[3]))
	}
	strict, free := meanOf(sums["eps=0.1"]), meanOf(sums["eps=inf"])
	if strict < free-1e-9 {
		t.Errorf("eps=0.1 mean %.2f beats eps=inf mean %.2f", strict, free)
	}
}

func TestFigure10And14Transfer(t *testing.T) {
	s := quickSuite(t)
	r10 := Figure10(s)
	checkResult(t, r10, "figure10")
	r14 := Figure14(s)
	checkResult(t, r14, "figure14")
	if !strings.Contains(strings.Join(r10.Lines, "\n"), "Spearman") {
		t.Error("transfer scatter should report rank correlation")
	}
}

func TestFigure11ProxyMatrix(t *testing.T) {
	r := Figure11(quickSuite(t))
	checkResult(t, r, "figure11")
	if len(r.CSVRows) != len(DatasetNames)*len(DatasetNames) {
		t.Errorf("matrix entries = %d, want %d", len(r.CSVRows), 16)
	}
}

func TestFigure11SelfProxyIsGood(t *testing.T) {
	// Tuning on a dataset's own bank as "proxy" must be close to self-tuned
	// noiseless RS (they are the same procedure up to bootstrap draws).
	r := Figure11(quickSuite(t))
	for _, row := range r.CSVRows {
		if row[0] == row[1] { // client == proxy
			med, self := atof(t, row[2]), atof(t, row[5])
			if math.Abs(med-self) > 25 { // percentage points, quick scale is noisy
				t.Errorf("self-proxy %s: median %.2f vs self-tuned %.2f", row[0], med, self)
			}
		}
	}
}

func TestFigure12ProxyVsNoisy(t *testing.T) {
	r := Figure12(quickSuite(t))
	checkResult(t, r, "figure12")
	joined := strings.Join(r.Lines, "\n")
	for _, want := range []string{"RS eps=1", "RS eps=inf", "proxy=cifar10", "proxy=reddit"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing series %q", want)
		}
	}
}

func TestFigure13SearchSpace(t *testing.T) {
	r := Figure13(quickSuite(t))
	checkResult(t, r, "figure13")
	// Four decade points per setting.
	count := 0
	for _, row := range r.CSVRows {
		if row[2] == "noiseless" {
			count++
		}
	}
	if count != 4 {
		t.Errorf("noiseless decade points = %d", count)
	}
}

func TestFigure15And16Bars(t *testing.T) {
	s := quickSuite(t)
	r15 := Figure15(s)
	checkResult(t, r15, "figure15")
	r16 := Figure16(s)
	checkResult(t, r16, "figure16")
}

func TestFigure1Headline(t *testing.T) {
	r := Figure1(quickSuite(t))
	checkResult(t, r, "figure1")
	joined := strings.Join(r.Lines, "\n")
	if !strings.Contains(joined, "RS(Proxy)") {
		t.Error("missing proxy bar")
	}
}

func TestFigure2ScenarioFlipProbability(t *testing.T) {
	s := quickSuite(t)
	// With no noise the better config always ranks first; with severe noise
	// flips must occur.
	clean := Figure2Scenario(s, "cifar10", 0.1, core.Noiseless(), 50)
	if clean != 0 {
		t.Errorf("noiseless flip probability = %.2f, want 0", clean)
	}
	noisy := Figure2Scenario(s, "cifar10", 0.1, core.Noise{SampleCount: 1, Epsilon: 1}, 200)
	if noisy <= 0 {
		t.Error("severe noise never flipped the ranking")
	}
}

// TestAllFiguresRegistryComplete checks the registry is a set: every id is
// unique (a duplicate would shadow a driver in JobsByID and write its files
// twice) and resolves to its own entry.
func TestAllFiguresRegistryComplete(t *testing.T) {
	order := FigureOrder()
	jobs, err := JobsByID(order)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(order) {
		t.Fatalf("%d of %d registry ids are distinct: %v", len(jobs), len(order), order)
	}
	for i, j := range jobs {
		if j.ID != order[i] || j.Run == nil {
			t.Errorf("id %q resolved to job %q (driver set: %v)", order[i], j.ID, j.Run != nil)
		}
	}
}

func TestJobsByID(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ids     []string
		want    []string
		wantErr string
	}{
		{name: "given order", ids: []string{"figure7", "table1"}, want: []string{"figure7", "table1"}},
		{name: "trailing comma", ids: []string{"figure3", ""}, want: []string{"figure3"}},
		{name: "spaces", ids: []string{" figure3", "figure4 ", " "}, want: []string{"figure3", "figure4"}},
		{name: "repeat keeps first", ids: []string{"figure3", "table1", "figure3"}, want: []string{"figure3", "table1"}},
		{name: "repeat after trim", ids: []string{"figure3", " figure3"}, want: []string{"figure3"}},
		{name: "nothing", ids: nil, want: []string{}},
		{name: "unknown", ids: []string{"figure3", "figure99"}, wantErr: `unknown experiment "figure99"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobs, err := JobsByID(tc.ids)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, len(jobs))
			for i, j := range jobs {
				got[i] = j.ID
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("ids = %v, want %v", got, tc.want)
			}
		})
	}
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
