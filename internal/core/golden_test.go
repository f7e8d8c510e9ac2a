package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"noisyeval/internal/data"
	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// The constants below were recorded on the scalar Go GEMM kernels (the commit
// before the AVX2 ones landed), on the exact populations and options
// constructed in the tests. The batched engine builds every bank, and banks
// are content-addressed on it: a kernel that changes one bit here silently
// invalidates every warm cache and the benchmark's results_digest. They must
// hold on the AVX2 path and on the portable one alike. (The bank hashes also
// equal what the retired per-sample engine recorded on these fixtures — a
// misclassification count absorbs a last-ulp difference — so the weight
// hashes are the sharp pins.)
const (
	goldenBatchedImageBankHash   = "34a46f7f94b37931d5f4d08a3ca9fe4dfb974c6b5a382c8abacf394e6140f333"
	goldenBatchedTextBankHash    = "00cb380e80f40ced97ac9a37d84e857dbe6140e1f95cae9073c3d85d541b1b0c"
	goldenBatchedTrainerHash     = "43ef8893eb1bf311ee13a5fa7b05bb11ad4b137e876a6cd4256b87d913326282"
	goldenBatchedTextTrainerHash = "b0be59f5492b78c4730feac71f2d7274a85373ea54d5e282270b238f09007134"
)

// A second set, recorded on the commit before the lane-wise exp, the
// element-wise AVX2 kernels and the pooled evaluation pass landed (scalar
// softmax, Go loops, one per-client EvalClients pass per partition), for what the first
// set leaves out: the 62-way head (15 exp vectors plus a two-element scalar
// tail per softmax row), partition p = 1 beside p = 0.5, a configuration
// that diverges part-way (NaN/Inf softmax rows in its last live round, the
// Label != 0 evaluation after it), and the reddit-like shape (single-example
// clients, so batches of one row).
const (
	goldenFemnistBankHash      = "d05bc93c6486d5b96c93f0508717e064505db51b86c3a5af75864b0eddba0e8d"
	goldenDivergingTrainerHash = "912058a249bd69e58a8134abcce839373a4e1ec41bcc3850e23a83e466d3f2f1"
	goldenDivergingFreezeRound = 6
	goldenRedditTrainerHash    = "144c7f0e2ecc475d9fc0be72748fe21c11b2521ce59c98a4a3363aea571b7a57"
)

func hashFloats(h interface{ Write([]byte) (int, error) }, xs []float64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}

// hashBankContent hashes every numeric field of the bank in a fixed order.
func hashBankContent(b *Bank) string {
	h := sha256.New()
	var buf [8]byte
	wi := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, c := range b.Configs {
		hashFloats(h, []float64{c.ServerLR, c.Beta1, c.Beta2, c.LRDecay, c.ClientLR, c.ClientMomentum, c.WeightDecay})
		wi(c.BatchSize)
		wi(c.Epochs)
	}
	for _, r := range b.Rounds {
		wi(r)
	}
	hashFloats(h, b.Partitions)
	// The rates materialised from the counts, row-major
	// [partition][config][checkpoint][client] — the exact values and order
	// the pre-arena nested loops and the float64 arena hashed — so the
	// golden constants recorded against float banks still apply. Row (not
	// Counts) so segment-backed mapped banks hash identically to their heap
	// twins.
	var rates []float64
	for pi := range b.Partitions {
		den := rateDivisors(b.ExampleCounts[pi])
		for ci := range b.Configs {
			for ri := range b.Rounds {
				rates = ratesInto(rates, b.Errs.Row(pi, ci, ri), den)
				hashFloats(h, rates)
			}
		}
	}
	for _, d := range b.Diverged {
		if d {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func goldenImagePop(t testing.TB) *data.Population {
	t.Helper()
	spec := data.CIFAR10Like().Scaled(0.06, 0)
	spec.MeanExamples, spec.MinExamples, spec.MaxExamples = 20, 15, 25
	pop, err := data.Generate(spec, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func goldenTextPop(t testing.TB) *data.Population {
	t.Helper()
	pop, err := data.Generate(data.StackOverflowLike().Scaled(0.004, 30), rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func goldenFemnistPop(t testing.TB) *data.Population {
	t.Helper()
	pop, err := data.Generate(data.FEMNISTLike().Scaled(0.03, 30), rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func goldenRedditPop(t testing.TB) *data.Population {
	t.Helper()
	pop, err := data.Generate(data.RedditLike().Scaled(0.002, 30), rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// goldenDivergingHP overflows a client's local solve on goldenFemnistPop
// after a few healthy rounds: a client learning rate just under the value
// that blows up in round one.
var goldenDivergingHP = fl.HParams{ServerLR: 0.1, Beta1: 0.5, Beta2: 0.9, ClientLR: 1.1e17, ClientMomentum: 0.9, BatchSize: 3}

// goldenBankHashes builds the image and the text golden bank and returns
// their content hashes.
func goldenBankHashes(t *testing.T) (image, text string) {
	t.Helper()
	opts := DefaultBuildOptions()
	opts.NumConfigs = 3
	opts.MaxRounds = 9
	opts.Partitions = []float64{0.5}
	b, err := BuildBank(goldenImagePop(t), opts, 7)
	if err != nil {
		t.Fatal(err)
	}

	popT := goldenTextPop(t)
	optsT := DefaultBuildOptions()
	optsT.NumConfigs = 2
	optsT.MaxRounds = 9
	bT, err := BuildBank(popT, optsT, 8)
	if err != nil {
		t.Fatal(err)
	}
	return hashBankContent(b), hashBankContent(bT)
}

// goldenTrainerWeightsHash trains pop for five rounds and hashes the server
// weights (a sharper check than recorded error rates, which could mask
// compensating drift).
func goldenTrainerWeightsHash(t *testing.T, pop *data.Population) string {
	t.Helper()
	hp := fl.HParams{ServerLR: 0.01, Beta1: 0.9, Beta2: 0.99, ClientLR: 0.1, ClientMomentum: 0.5, BatchSize: 8}
	tr, err := fl.NewTrainer(pop, hp, fl.DefaultOptions(), rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	tr.TrainTo(5)
	h := sha256.New()
	hashFloats(h, tr.Weights())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestBatchedBankBitIdentical pins the engine's banks on both task families
// to the scalar kernels' recorded bits.
func TestBatchedBankBitIdentical(t *testing.T) {
	image, text := goldenBankHashes(t)
	if image != goldenBatchedImageBankHash {
		t.Errorf("batched image bank content drifted from the scalar kernels:\n got %s\nwant %s", image, goldenBatchedImageBankHash)
	}
	if text != goldenBatchedTextBankHash {
		t.Errorf("batched text bank content drifted from the scalar kernels:\n got %s\nwant %s", text, goldenBatchedTextBankHash)
	}
}

// TestBatchedTrainerBitIdentical pins the batched trainer's weights — the
// golden image fixture, and the text one (whose embedding front-end is the
// only consumer of the first layer's input-gradient GEMM over ReLU-masked,
// half-zero gradients: the skip path of tensor.MatMul).
func TestBatchedTrainerBitIdentical(t *testing.T) {
	if got := goldenTrainerWeightsHash(t, goldenImagePop(t)); got != goldenBatchedTrainerHash {
		t.Errorf("batched image trainer weights drifted from the scalar kernels:\n got %s\nwant %s", got, goldenBatchedTrainerHash)
	}
	if got := goldenTrainerWeightsHash(t, goldenTextPop(t)); got != goldenBatchedTextTrainerHash {
		t.Errorf("batched text trainer weights drifted from the scalar kernels:\n got %s\nwant %s", got, goldenBatchedTextTrainerHash)
	}
}

// TestBatchedDivergingBankBitIdentical pins a 62-way bank under partitions
// 0, 0.5 and 1 whose explicit pool holds a configuration that diverges.
func TestBatchedDivergingBankBitIdentical(t *testing.T) {
	opts := DefaultBuildOptions()
	opts.MaxRounds = 9
	opts.Partitions = []float64{0.5, 1}
	opts.Configs = []fl.HParams{
		{ServerLR: 0.01, Beta1: 0.9, Beta2: 0.99, ClientLR: 0.1, ClientMomentum: 0.5, BatchSize: 5},
		goldenDivergingHP,
		{ServerLR: 0.003, Beta1: 0.3, Beta2: 0.999, ClientLR: 0.02, BatchSize: 32},
	}
	opts.NumConfigs = len(opts.Configs)
	b, err := BuildBank(goldenFemnistPop(t), opts, 11)
	if err != nil {
		t.Fatal(err)
	}
	if b.Diverged[0] || !b.Diverged[1] || b.Diverged[2] {
		t.Fatalf("fixture: Diverged = %v, want only config 1 to diverge", b.Diverged)
	}
	if got := hashBankContent(b); got != goldenFemnistBankHash {
		t.Errorf("femnist-like bank content drifted from the scalar loops:\n got %s\nwant %s", got, goldenFemnistBankHash)
	}
}

// TestBatchedDivergingTrainerBitIdentical pins the diverging run itself: the
// server weights after its last finite round, and the round that froze it.
func TestBatchedDivergingTrainerBitIdentical(t *testing.T) {
	tr, err := fl.NewTrainer(goldenFemnistPop(t), goldenDivergingHP, fl.DefaultOptions(), rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	var last []float64
	for !tr.Diverged() && tr.RoundNum() < 30 {
		last = tr.Weights()
		tr.Round()
	}
	if !tr.Diverged() || tr.RoundNum() != goldenDivergingFreezeRound {
		t.Fatalf("diverged = %v at round %d, want divergence at round %d", tr.Diverged(), tr.RoundNum(), goldenDivergingFreezeRound)
	}
	h := sha256.New()
	hashFloats(h, last)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenDivergingTrainerHash {
		t.Errorf("weights before the diverging round drifted from the scalar loops:\n got %s\nwant %s", got, goldenDivergingTrainerHash)
	}
}

// TestBatchedRedditTrainerBitIdentical pins the reddit-like trainer.
func TestBatchedRedditTrainerBitIdentical(t *testing.T) {
	if got := goldenTrainerWeightsHash(t, goldenRedditPop(t)); got != goldenRedditTrainerHash {
		t.Errorf("reddit-like trainer weights drifted from the scalar loops:\n got %s\nwant %s", got, goldenRedditTrainerHash)
	}
}

// TestBatchedBankDeterministicAcrossWorkers verifies the batched engine
// keeps BuildBank deterministic in (pop, opts, seed) and independent of the
// worker count.
func TestBatchedBankDeterministicAcrossWorkers(t *testing.T) {
	pop := goldenImagePop(t)
	opts := DefaultBuildOptions()
	opts.NumConfigs = 3
	opts.MaxRounds = 9
	build := func(workers int) string {
		o := opts
		o.Workers = workers
		b, err := BuildBank(pop, o, 5)
		if err != nil {
			t.Fatal(err)
		}
		return hashBankContent(b)
	}
	h1, h4 := build(1), build(4)
	if h1 != h4 {
		t.Errorf("batched bank content differs across worker counts: %s vs %s", h1, h4)
	}
	if h1 != build(1) {
		t.Error("batched bank build is not deterministic for a fixed worker count")
	}
}
