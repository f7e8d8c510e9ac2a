package core

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"noisyeval/internal/data"
	"noisyeval/internal/dp"
	"noisyeval/internal/eval"
	"noisyeval/internal/hpo"
	"noisyeval/internal/rng"
)

// tinyBank builds a small but real bank once per test binary.
var (
	tinyBankCache *Bank
	tinyPopCache  *data.Population
)

func tinySpec() data.Spec {
	s := data.CIFAR10Like()
	s.TrainClients, s.EvalClients = 24, 12
	s.MeanExamples, s.MinExamples, s.MaxExamples = 25, 15, 35
	s.Classes, s.FeatureDim, s.Hidden = 4, 8, 12
	s.FeatureNoise = 0.6
	return s
}

func tinyBuildOptions() BuildOptions {
	o := DefaultBuildOptions()
	o.NumConfigs = 12
	o.MaxRounds = 27
	o.Partitions = []float64{0.5, 1}
	return o
}

func tinyBank(t *testing.T) (*Bank, *data.Population) {
	t.Helper()
	if tinyBankCache == nil {
		tinyPopCache = data.MustGenerate(tinySpec(), rng.New(1))
		b, err := BuildBank(tinyPopCache, tinyBuildOptions(), 7)
		if err != nil {
			t.Fatal(err)
		}
		tinyBankCache = b
	}
	return tinyBankCache, tinyPopCache
}

// countDiff walks two matrices in Row order and describes the first element
// where they differ ("" when their shapes and counts are equal).
func countDiff(a, b *ErrMatrix) string {
	if a.Parts != b.Parts || a.Configs != b.Configs || a.Checkpoints != b.Checkpoints || a.Clients != b.Clients {
		return fmt.Sprintf("shape %dx%dx%dx%d vs %dx%dx%dx%d",
			a.Parts, a.Configs, a.Checkpoints, a.Clients, b.Parts, b.Configs, b.Checkpoints, b.Clients)
	}
	for pi := 0; pi < a.Parts; pi++ {
		for ci := 0; ci < a.Configs; ci++ {
			for ri := 0; ri < a.Checkpoints; ri++ {
				ra, rb := a.Row(pi, ci, ri), b.Row(pi, ci, ri)
				for k := range ra {
					if ra[k] != rb[k] {
						return fmt.Sprintf("count (%d,%d,%d,%d) %d vs %d", pi, ci, ri, k, ra[k], rb[k])
					}
				}
			}
		}
	}
	return ""
}

func TestBuildBankShape(t *testing.T) {
	b, _ := tinyBank(t)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(b.Configs) != 12 {
		t.Errorf("configs = %d", len(b.Configs))
	}
	wantRounds := []int{1, 3, 9, 27}
	if len(b.Rounds) != len(wantRounds) {
		t.Fatalf("rounds = %v", b.Rounds)
	}
	for i, r := range wantRounds {
		if b.Rounds[i] != r {
			t.Fatalf("rounds = %v, want %v", b.Rounds, wantRounds)
		}
	}
	if len(b.Partitions) != 3 || b.Partitions[0] != 0 {
		t.Errorf("partitions = %v", b.Partitions)
	}
	if b.NumClients() != 12 {
		t.Errorf("clients = %d", b.NumClients())
	}
}

func TestBuildBankDeterministicAcrossParallelism(t *testing.T) {
	pop := data.MustGenerate(tinySpec(), rng.New(1))
	opts := tinyBuildOptions()
	opts.NumConfigs = 4
	opts.Workers = 1
	b1, err := BuildBank(pop, opts, 9)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	b2, err := BuildBank(pop, opts, 9)
	if err != nil {
		t.Fatal(err)
	}
	if d := countDiff(&b1.Errs, &b2.Errs); d != "" {
		t.Fatalf("bank depends on worker count: %s", d)
	}
}

func TestBankErrorsImproveWithRounds(t *testing.T) {
	b, _ := tinyBank(t)
	// The best config's full error at the last checkpoint should beat the
	// first checkpoint (training works through the bank path).
	improved := 0
	for ci := range b.Configs {
		first, _ := b.ClientErrors(0, ci, b.Rounds[0])
		last, _ := b.ClientErrors(0, ci, b.MaxRounds())
		if mean(last) < mean(first) {
			improved++
		}
	}
	if improved < len(b.Configs)/3 {
		t.Errorf("only %d/%d configs improved with training", improved, len(b.Configs))
	}
}

func TestBankConfigIndex(t *testing.T) {
	b, _ := tinyBank(t)
	for i, cfg := range b.Configs {
		idx, err := b.ConfigIndex(cfg)
		if err != nil || idx != i {
			t.Fatalf("ConfigIndex(%d) = %d, %v", i, idx, err)
		}
	}
	if _, err := b.ConfigIndex(hpo.DefaultSpace().Sample(rng.New(99))); err == nil {
		t.Error("foreign config accepted")
	}
}

func TestBankCheckpointIndex(t *testing.T) {
	b, _ := tinyBank(t)
	cases := map[int]int{0: 0, 1: 0, 2: 0, 3: 1, 8: 1, 9: 2, 26: 2, 27: 3, 1000: 3}
	for rounds, want := range cases {
		if got := b.CheckpointIndex(rounds); got != want {
			t.Errorf("CheckpointIndex(%d) = %d, want %d", rounds, got, want)
		}
	}
}

func TestBankPartitionIndex(t *testing.T) {
	b, _ := tinyBank(t)
	if _, err := b.PartitionIndex(0.5); err != nil {
		t.Error(err)
	}
	if _, err := b.PartitionIndex(0.25); err == nil {
		t.Error("unknown partition accepted")
	}
}

func TestBankSaveLoadRoundTrip(t *testing.T) {
	b, _ := tinyBank(t)
	path := filepath.Join(t.TempDir(), "bank.gob.gz")
	if err := SaveBankV4(b, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBank(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SpecName != b.SpecName || len(loaded.Configs) != len(b.Configs) {
		t.Fatal("metadata lost")
	}
	e1, _ := b.ClientErrors(0.5, 3, 9)
	e2, _ := loaded.ClientErrors(0.5, 3, 9)
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("error records corrupted in round trip")
		}
	}
	// Index must work after load.
	if _, err := loaded.ConfigIndex(loaded.Configs[0]); err != nil {
		t.Error(err)
	}
}

func TestLoadBankMissingFile(t *testing.T) {
	if _, err := LoadBank(filepath.Join(t.TempDir(), "nope.gob.gz")); err == nil {
		t.Error("expected error")
	}
}

func TestBuildBankValidation(t *testing.T) {
	pop := data.MustGenerate(tinySpec(), rng.New(2))
	bad := tinyBuildOptions()
	bad.NumConfigs = 0
	if _, err := BuildBank(pop, bad, 1); err == nil {
		t.Error("zero configs accepted")
	}
	bad2 := tinyBuildOptions()
	bad2.MaxRounds = 0
	if _, err := BuildBank(pop, bad2, 1); err == nil {
		t.Error("zero rounds accepted")
	}
}

// --- BankOracle ---

func TestBankOracleFullEvalMatchesTrue(t *testing.T) {
	b, _ := tinyBank(t)
	o, err := NewBankOracle(b, 0, eval.Noiseless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := b.Configs[0]
	if got, want := o.Evaluate(cfg, 27, "x"), o.TrueError(cfg, 27); got != want {
		t.Errorf("full eval %.4f != true %.4f", got, want)
	}
}

func TestBankOracleSubsamplingNoise(t *testing.T) {
	b, _ := tinyBank(t)
	o, err := NewBankOracle(b, 0, eval.Scheme{Count: 1, Weighted: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := b.Configs[0]
	seen := map[float64]bool{}
	for i := 0; i < 20; i++ {
		seen[o.Evaluate(cfg, 27, string(rune('a'+i)))] = true
	}
	if len(seen) < 3 {
		t.Errorf("1-client evals produced only %d distinct values", len(seen))
	}
}

func TestBankOracleSharedCohortPerEvalID(t *testing.T) {
	b, _ := tinyBank(t)
	o, _ := NewBankOracle(b, 0, eval.Scheme{Count: 3, Weighted: true}, 1)
	cfg := b.Configs[1]
	if o.Evaluate(cfg, 27, "round-7") != o.Evaluate(cfg, 27, "round-7") {
		t.Error("same evalID must reproduce the same evaluation")
	}
	if o.Evaluate(cfg, 27, "round-7") == o.Evaluate(cfg, 27, "round-8") {
		t.Log("distinct evalIDs coincided (possible but unlikely)")
	}
}

func TestBankOracleTrialDecorrelation(t *testing.T) {
	b, _ := tinyBank(t)
	o, _ := NewBankOracle(b, 0, eval.Scheme{Count: 2, Weighted: true}, 1)
	a := o.WithTrial(0).Evaluate(b.Configs[2], 27, "e")
	c := o.WithTrial(1).Evaluate(b.Configs[2], 27, "e")
	if a == c {
		t.Log("two trials coincided (possible but unlikely)")
	}
	// Same trial is reproducible.
	if o.WithTrial(0).Evaluate(b.Configs[2], 27, "e") != a {
		t.Error("trial evaluation not reproducible")
	}
}

func TestBankOracleIgnoresSchemeDP(t *testing.T) {
	b, _ := tinyBank(t)
	scheme := eval.Scheme{Count: 3, DP: dp.Params{Epsilon: 0.001, TotalEvals: 1}}
	o, err := NewBankOracle(b, 0, scheme, 1)
	if err != nil {
		t.Fatal(err)
	}
	// With DP stripped, repeated same-ID evals are identical (no Laplace).
	cfg := b.Configs[0]
	if o.Evaluate(cfg, 27, "id") != o.Evaluate(cfg, 27, "id") {
		t.Error("oracle applied DP noise; methods own the DP step")
	}
}

func TestBankOraclePartitions(t *testing.T) {
	b, _ := tinyBank(t)
	nat, err := NewBankOracle(b, 0, eval.Noiseless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	iid, err := NewBankOracle(b, 1, eval.Noiseless(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Full-pool error should be similar but generally not identical between
	// partitions (same pooled data, resampled per client).
	cfg := b.Configs[0]
	a, c := nat.TrueError(cfg, 27), iid.TrueError(cfg, 27)
	if math.Abs(a-c) > 0.3 {
		t.Errorf("partition errors wildly different: %.3f vs %.3f", a, c)
	}
}

// --- Tuner on the bank ---

func TestTunerRunTrials(t *testing.T) {
	b, _ := tinyBank(t)
	o, _ := NewBankOracle(b, 0, eval.Noiseless(), 1)
	tn := Tuner{
		Method:   hpo.RandomSearch{},
		Space:    hpo.DefaultSpace(),
		Settings: hpo.Settings{Budget: hpo.Budget{TotalRounds: 8 * 27, MaxPerConfig: 27, K: 8}},
	}
	results := tn.RunTrials(o, 16, rng.New(3))
	if len(results) != 16 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.FinalTrue < 0 || r.FinalTrue > 1 {
			t.Errorf("trial %d final = %v", r.Trial, r.FinalTrue)
		}
		if r.History.Len() != 8 {
			t.Errorf("trial %d has %d observations", r.Trial, r.History.Len())
		}
	}
	finals := FinalErrors(results)
	if len(finals) != 16 {
		t.Fatal("FinalErrors length")
	}
}

func TestTunerTrialsDeterministicAcrossRuns(t *testing.T) {
	b, _ := tinyBank(t)
	o, _ := NewBankOracle(b, 0, eval.Scheme{Count: 2, Weighted: true}, 1)
	tn := Tuner{
		Method:   hpo.RandomSearch{},
		Space:    hpo.DefaultSpace(),
		Settings: hpo.Settings{Budget: hpo.Budget{TotalRounds: 4 * 27, MaxPerConfig: 27, K: 4}},
	}
	a := FinalErrors(tn.RunTrials(o, 8, rng.New(5)))
	c := FinalErrors(tn.RunTrials(o, 8, rng.New(5)))
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("trials not deterministic across runs")
		}
	}
}

func TestSubsamplingHurtsTuning(t *testing.T) {
	// The paper's core claim at miniature scale: median final error over
	// bootstrap trials should be no better under 1-client evaluation than
	// under full evaluation.
	b, _ := tinyBank(t)
	tn := Tuner{
		Method:   hpo.RandomSearch{},
		Space:    hpo.DefaultSpace(),
		Settings: hpo.Settings{Budget: hpo.Budget{TotalRounds: 8 * 27, MaxPerConfig: 27, K: 8}},
	}
	full, _ := NewBankOracle(b, 0, eval.Noiseless(), 1)
	one, _ := NewBankOracle(b, 0, eval.Scheme{Count: 1, Weighted: true}, 1)
	fullErrs := FinalErrors(tn.RunTrials(full, 30, rng.New(6)))
	oneErrs := FinalErrors(tn.RunTrials(one, 30, rng.New(6)))
	if median(oneErrs) < median(fullErrs)-1e-9 {
		t.Errorf("1-client median %.4f unexpectedly beats full %.4f", median(oneErrs), median(fullErrs))
	}
}

// --- Noise ---

func TestNoiseScheme(t *testing.T) {
	n := Noise{SampleCount: 5, Bias: 1.5}
	s := n.Scheme()
	if s.Count != 5 || s.Bias != 1.5 || !s.Weighted {
		t.Errorf("scheme = %+v", s)
	}
	p := Noise{SampleCount: 5, Epsilon: 1}
	if p.Scheme().Weighted {
		t.Error("private noise must force uniform weighting")
	}
	if !p.Private() {
		t.Error("eps=1 should be private")
	}
	if (Noise{Epsilon: dp.InfEpsilon}).Private() {
		t.Error("inf eps should be non-private")
	}
}

func TestNoiseSettings(t *testing.T) {
	s := Noise{Epsilon: 10}.Settings(hpo.DefaultSettings())
	if s.Epsilon != 10 {
		t.Errorf("epsilon = %v", s.Epsilon)
	}
	s2 := Noiseless().Settings(hpo.DefaultSettings())
	if !math.IsInf(s2.Epsilon, 1) {
		t.Errorf("noiseless epsilon = %v", s2.Epsilon)
	}
}

func TestNoiseString(t *testing.T) {
	if (Noise{}).String() == "" {
		t.Error("empty string")
	}
	if (Noise{SampleCount: 3, Epsilon: 1}).String() == "" {
		t.Error("empty string")
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := range cp {
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[i] {
				cp[i], cp[j] = cp[j], cp[i]
			}
		}
	}
	return cp[len(cp)/2]
}
