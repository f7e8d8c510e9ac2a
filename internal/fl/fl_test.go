package fl

import (
	"math"
	"testing"

	"noisyeval/internal/data"
	"noisyeval/internal/rng"
)

func tinyPop(t *testing.T, seed uint64) *data.Population {
	t.Helper()
	s := data.CIFAR10Like()
	s.TrainClients, s.EvalClients = 16, 8
	s.MeanExamples, s.MinExamples, s.MaxExamples = 30, 20, 40
	s.Classes, s.FeatureDim, s.Hidden = 4, 8, 16
	s.FeatureNoise = 0.5
	return data.MustGenerate(s, rng.New(seed))
}

func goodHP() HParams {
	return HParams{
		ServerLR: 0.03, Beta1: 0.9, Beta2: 0.99,
		ClientLR: 0.1, ClientMomentum: 0.0, BatchSize: 16,
	}.DefaultFixed()
}

func TestHParamsDefaultFixed(t *testing.T) {
	h := HParams{ServerLR: 1, ClientLR: 1}.DefaultFixed()
	if h.LRDecay != 0.9999 || h.WeightDecay != 5e-5 || h.Epochs != 1 || h.BatchSize != 32 {
		t.Errorf("defaults = %+v", h)
	}
	// Explicit values survive.
	h2 := HParams{ServerLR: 1, ClientLR: 1, LRDecay: 0.5, Epochs: 3, BatchSize: 64, WeightDecay: 0.1}.DefaultFixed()
	if h2.LRDecay != 0.5 || h2.Epochs != 3 || h2.BatchSize != 64 || h2.WeightDecay != 0.1 {
		t.Errorf("explicit values overwritten: %+v", h2)
	}
}

func TestHParamsValidate(t *testing.T) {
	cases := map[string]HParams{
		"no server lr":  {ClientLR: 1, BatchSize: 1, Epochs: 1},
		"beta1 too big": {ServerLR: 1, ClientLR: 1, Beta1: 1, BatchSize: 1, Epochs: 1},
		"neg momentum":  {ServerLR: 1, ClientLR: 1, ClientMomentum: -0.1, BatchSize: 1, Epochs: 1},
		"zero batch":    {ServerLR: 1, ClientLR: 1, BatchSize: 0, Epochs: 1},
	}
	for name, hp := range cases {
		if err := hp.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	if err := goodHP().Validate(); err != nil {
		t.Errorf("good HP rejected: %v", err)
	}
}

func TestTrainerReducesError(t *testing.T) {
	pop := tinyPop(t, 1)
	tr, err := NewTrainer(pop, goodHP(), DefaultOptions(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	before := tr.FullValidationError(true)
	tr.TrainTo(40)
	after := tr.FullValidationError(true)
	if after >= before {
		t.Fatalf("training did not reduce error: %.3f -> %.3f", before, after)
	}
	if after > 0.6 {
		t.Errorf("final error %.3f unexpectedly high for a separable synthetic task", after)
	}
}

func TestTrainerDeterminism(t *testing.T) {
	pop := tinyPop(t, 3)
	run := func() float64 {
		tr, err := NewTrainer(pop, goodHP(), DefaultOptions(), rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		tr.TrainTo(10)
		return tr.FullValidationError(true)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed runs differ: %v vs %v", a, b)
	}
}

func TestTrainerSeedSensitivity(t *testing.T) {
	pop := tinyPop(t, 3)
	errsBySeed := map[float64]bool{}
	for seed := uint64(1); seed <= 3; seed++ {
		tr, _ := NewTrainer(pop, goodHP(), DefaultOptions(), rng.New(seed))
		tr.TrainTo(5)
		errsBySeed[tr.FullValidationError(true)] = true
	}
	if len(errsBySeed) < 2 {
		t.Error("different seeds should give different trajectories")
	}
}

func TestDivergenceDetection(t *testing.T) {
	pop := tinyPop(t, 4)
	hp := goodHP()
	hp.ClientLR = 1e6 // absurd lr
	hp.ServerLR = 10
	tr, err := NewTrainer(pop, hp, DefaultOptions(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	tr.TrainTo(30)
	if !tr.Diverged() {
		t.Skip("did not diverge at this scale; acceptable")
	}
	// A diverged model predicts class 0 everywhere.
	client := pop.Val[0]
	notZero := 0
	for _, ex := range client.Examples {
		if ex.Label != 0 {
			notZero++
		}
	}
	want := float64(notZero) / float64(len(client.Examples))
	if e := tr.EvalClient(client); e != want {
		t.Errorf("diverged eval = %v, want constant-class error %v", e, want)
	}
	// Further rounds are no-ops but still advance the counter.
	r := tr.RoundNum()
	tr.Round()
	if tr.RoundNum() != r+1 {
		t.Error("round counter frozen")
	}
}

func TestBadLRIsWorseThanGoodLR(t *testing.T) {
	pop := tinyPop(t, 6)
	good, _ := NewTrainer(pop, goodHP(), DefaultOptions(), rng.New(8))
	good.TrainTo(30)
	bad := goodHP()
	bad.ClientLR = 1e-6
	bad.ServerLR = 1e-6
	badTr, _ := NewTrainer(pop, bad, DefaultOptions(), rng.New(8))
	badTr.TrainTo(30)
	ge, be := good.FullValidationError(true), badTr.FullValidationError(true)
	if ge >= be {
		t.Errorf("good lr error %.3f should beat tiny lr error %.3f", ge, be)
	}
}

func TestEvalClientsVectorShape(t *testing.T) {
	pop := tinyPop(t, 9)
	tr, _ := NewTrainer(pop, goodHP(), DefaultOptions(), rng.New(10))
	tr.TrainTo(5)
	errs := tr.EvalClients(pop.Val)
	if len(errs) != len(pop.Val) {
		t.Fatalf("got %d errors for %d clients", len(errs), len(pop.Val))
	}
	for i, e := range errs {
		if e < 0 || e > 1 || math.IsNaN(e) {
			t.Fatalf("client %d error %v outside [0,1]", i, e)
		}
	}
}

func TestEvalEmptyClient(t *testing.T) {
	pop := tinyPop(t, 11)
	tr, _ := NewTrainer(pop, goodHP(), DefaultOptions(), rng.New(12))
	if e := tr.EvalClient(&data.Client{ID: 99}); e != 0 {
		t.Errorf("empty client error = %v", e)
	}
}

func TestWeightedError(t *testing.T) {
	errs := []float64{0.1, 0.5, 0.9}
	w := []float64{1, 1, 2}
	if got := WeightedError(errs, w, nil); math.Abs(got-(0.1+0.5+1.8)/4) > 1e-12 {
		t.Errorf("full weighted = %v", got)
	}
	if got := WeightedError(errs, w, []int{0, 2}); math.Abs(got-(0.1+1.8)/3) > 1e-12 {
		t.Errorf("subset weighted = %v", got)
	}
	uniform := []float64{1, 1, 1}
	if got := WeightedError(errs, uniform, nil); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("uniform = %v", got)
	}
}

func TestWeightedErrorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"len mismatch": func() { WeightedError([]float64{1}, []float64{1, 2}, nil) },
		"empty subset": func() { WeightedError([]float64{1}, []float64{1}, []int{}) },
		"zero weight":  func() { WeightedError([]float64{1}, []float64{0}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestUniformVsWeightedAggregationDiffer(t *testing.T) {
	pop := tinyPop(t, 13)
	optsW := DefaultOptions()
	optsU := DefaultOptions()
	optsU.WeightedAggregation = false
	a, _ := NewTrainer(pop, goodHP(), optsW, rng.New(14))
	b, _ := NewTrainer(pop, goodHP(), optsU, rng.New(14))
	a.TrainTo(10)
	b.TrainTo(10)
	if a.FullValidationError(true) == b.FullValidationError(true) {
		t.Log("weighted and uniform aggregation coincided (possible but unlikely)")
	}
}

func TestNewTrainerValidation(t *testing.T) {
	pop := tinyPop(t, 15)
	if _, err := NewTrainer(pop, HParams{}, DefaultOptions(), rng.New(1)); err == nil {
		t.Error("expected error for empty HParams")
	}
	opts := DefaultOptions()
	opts.ClientsPerRound = 0
	if _, err := NewTrainer(pop, goodHP(), opts, rng.New(1)); err == nil {
		t.Error("expected error for zero cohort")
	}
	empty := &data.Population{Spec: pop.Spec}
	if _, err := NewTrainer(empty, goodHP(), DefaultOptions(), rng.New(1)); err == nil {
		t.Error("expected error for empty population")
	}
}

func TestCohortLargerThanPopulation(t *testing.T) {
	pop := tinyPop(t, 16)
	opts := DefaultOptions()
	opts.ClientsPerRound = 1000 // > 16 train clients
	tr, err := NewTrainer(pop, goodHP(), opts, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	tr.Round() // must not panic
	if tr.RoundNum() != 1 {
		t.Error("round did not advance")
	}
}

func TestWeightsSnapshotIsCopy(t *testing.T) {
	pop := tinyPop(t, 18)
	tr, _ := NewTrainer(pop, goodHP(), DefaultOptions(), rng.New(19))
	w := tr.Weights()
	w[0] = 12345
	if tr.Weights()[0] == 12345 {
		t.Error("Weights returned a live reference")
	}
}

func TestTextTaskTrains(t *testing.T) {
	s := data.RedditLike()
	s.TrainClients, s.EvalClients = 12, 6
	s.MeanExamples, s.MinExamples, s.MaxExamples = 20, 10, 30
	s.Vocab, s.Topics, s.Hidden, s.EmbedDim = 16, 3, 16, 8
	pop := data.MustGenerate(s, rng.New(20))
	hp := goodHP()
	hp.ClientLR = 0.5
	tr, err := NewTrainer(pop, hp, DefaultOptions(), rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	before := tr.FullValidationError(true)
	tr.TrainTo(40)
	after := tr.FullValidationError(true)
	if after >= before {
		t.Errorf("text training did not reduce error: %.3f -> %.3f", before, after)
	}
}

// TestPooledEvalMatchesPerClient pins the bank build's evaluation pass —
// every pooled example judged once, each partition's rates counted from the
// flags — to the per-client form it replaced in core.TrainRange,
// EvalClients over RepartitionIID's copied clients, bit for bit: for an
// image and a text population (pools longer than one evalBatch chunk), every
// partition, a healthy and a diverged trainer, one client without examples.
func TestPooledEvalMatchesPerClient(t *testing.T) {
	text := data.StackOverflowLike().Scaled(0.003, 40)
	for name, pop := range map[string]*data.Population{
		"image": tinyPop(t, 41),
		"text":  data.MustGenerate(text, rng.New(42)),
	} {
		val := append([]*data.Client(nil), pop.Val...)
		val[1] = &data.Client{ID: val[1].ID}
		pool := data.PooledExamples(val)
		if len(pool) <= evalBatch {
			t.Fatalf("%s: pool of %d examples fits one chunk", name, len(pool))
		}
		tr, err := NewTrainer(pop, goodHP(), DefaultOptions(), rng.New(43))
		if err != nil {
			t.Fatal(err)
		}
		tr.TrainTo(3)
		for _, diverged := range []bool{false, true} {
			tr.diverged = diverged
			flags := tr.WrongFlags(pool)
			for _, p := range []float64{0, 0.5, 1} {
				want := tr.EvalClients(data.RepartitionIID(val, p, rng.New(44)))
				src := data.RepartitionSources(val, p, rng.New(44))
				counts := make([]uint32, len(val))
				WrongCountsInto(counts, flags, src)
				got := make([]float64, len(val))
				for k, c := range counts {
					if len(src[k]) > 0 {
						got[k] = float64(c) / float64(len(src[k]))
					}
				}
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Errorf("%s diverged=%v p=%g client %d: pooled %v, per-client %v", name, diverged, p, k, got[k], want[k])
					}
				}
				if got[1] != 0 {
					t.Errorf("%s: client without examples scored %v, want 0", name, got[1])
				}
			}
		}
	}
}
