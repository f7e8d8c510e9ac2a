package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"noisyeval/internal/data"
	"noisyeval/internal/rng"
)

// shardTestInputs returns the miniature build the shard tests share.
func shardTestInputs(t testing.TB) (*data.Population, BuildOptions, uint64) {
	opts := DefaultBuildOptions()
	opts.NumConfigs = 5
	opts.MaxRounds = 9
	opts.Partitions = []float64{0.5}
	return goldenImagePop(t), opts, 7
}

// TestShardedBuildByteIdentical is the dist determinism pin: a bank
// assembled from range shards — trained independently, in scrambled order,
// with uneven split points — must be byte-identical to a single-process
// BuildBank of the same (population, options, seed): same BankKey inputs,
// same content hash, and the same bankfmt/v3 encoding (the acceptance
// criterion of the cluster protocol).
func TestShardedBuildByteIdentical(t *testing.T) {
	pop, opts, seed := shardTestInputs(t)

	local, err := BuildBank(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := NewBuildPlan(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumConfigs() != opts.NumConfigs {
		t.Fatalf("plan has %d configs, want %d", plan.NumConfigs(), opts.NumConfigs)
	}
	// Uneven ranges, trained and assembled out of order — exactly what a
	// fleet with heterogeneous workers produces.
	var shards []*BankShard
	for _, r := range [][2]int{{3, 5}, {0, 2}, {2, 3}} {
		sh, err := plan.TrainRange(r[0], r[1], 2)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sh)
	}
	assembled, err := AssembleBank(plan, shards)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := hashBankContent(assembled), hashBankContent(local); got != want {
		t.Fatalf("assembled bank content differs from local build:\n got %s\nwant %s", got, want)
	}
	if got, want := BankFingerprint(assembled), BankFingerprint(local); got != want {
		t.Fatalf("assembled bank fingerprint differs: %s vs %s", got, want)
	}

	// Encoded-bytes identity: the exact artifact the BankStore persists and
	// peers serve must match, not just the in-memory numbers.
	dir := t.TempDir()
	encode := func(name string, b *Bank) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := SaveBankV4(b, path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	lb, ab := encode("local.bank", local), encode("assembled.bank", assembled)
	if !bytes.Equal(lb, ab) {
		t.Fatalf("bankfmt encodings differ: local %x, assembled %x",
			sha256.Sum256(lb), sha256.Sum256(ab))
	}
}

// TestTrainRangeDeterministicPerRange verifies a re-trained range reproduces
// itself exactly (what makes duplicate/late shard completions trivially
// safe to accept from any worker).
func TestTrainRangeDeterministicPerRange(t *testing.T) {
	pop, opts, seed := shardTestInputs(t)
	plan, err := NewBuildPlan(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	a, err := plan.TrainRange(1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plan.TrainRange(1, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Errs.Counts {
		if a.Errs.Counts[i] != b.Errs.Counts[i] {
			t.Fatalf("arena float %d differs across retrains", i)
		}
	}
}

// TestAssembleBankRejectsBadCoverage pins the assembly guards: gaps,
// overlaps, and shape drift must all fail loudly rather than produce a
// silently wrong bank.
func TestAssembleBankRejectsBadCoverage(t *testing.T) {
	pop, opts, seed := shardTestInputs(t)
	plan, err := NewBuildPlan(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := plan.TrainRange(0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := plan.TrainRange(2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := plan.TrainRange(4, 5, 0)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		shards []*BankShard
	}{
		{"gap", []*BankShard{lo, hi}},
		{"overlap", []*BankShard{lo, lo, mid, hi}},
		{"missing tail", []*BankShard{lo, mid}},
		{"empty", nil},
	}
	for _, tc := range cases {
		if _, err := AssembleBank(plan, tc.shards); err == nil {
			t.Errorf("%s: AssembleBank accepted invalid coverage", tc.name)
		}
	}

	// Shape drift: a shard claiming the right range with truncated rounds.
	bad := &BankShard{
		Lo: 4, Hi: 5, Diverged: []bool{false},
		Errs: NewErrMatrix(lo.Errs.Parts, 1, 0, lo.Errs.Clients),
	}
	if _, err := AssembleBank(plan, []*BankShard{lo, mid, bad}); err == nil {
		t.Error("AssembleBank accepted a malformed shard")
	}
}

// TestShardRanges pins the shard splitting arithmetic.
func TestShardRanges(t *testing.T) {
	cases := []struct {
		n, size int
		want    [][2]int
	}{
		{5, 2, [][2]int{{0, 2}, {2, 4}, {4, 5}}},
		{4, 2, [][2]int{{0, 2}, {2, 4}}},
		{3, 0, [][2]int{{0, 3}}},
		{3, 10, [][2]int{{0, 3}}},
		{1, 1, [][2]int{{0, 1}}},
	}
	for _, tc := range cases {
		got := ShardRanges(tc.n, tc.size)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("ShardRanges(%d, %d) = %v, want %v", tc.n, tc.size, got, tc.want)
		}
	}
}

// TestNewBuildPlanValidates pins input validation (shared with BuildBank).
func TestNewBuildPlanValidates(t *testing.T) {
	pop, opts, seed := shardTestInputs(t)
	bad := opts
	bad.NumConfigs = 0
	if _, err := NewBuildPlan(pop, bad, seed); err == nil {
		t.Error("NewBuildPlan accepted NumConfigs = 0")
	}
	bad = opts
	bad.MaxRounds = 0
	if _, err := NewBuildPlan(pop, bad, seed); err == nil {
		t.Error("NewBuildPlan accepted MaxRounds = 0")
	}
	plan, err := NewBuildPlan(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{-1, 2}, {0, 6}, {3, 3}, {4, 2}} {
		if _, err := plan.TrainRange(r[0], r[1], 0); err == nil {
			t.Errorf("TrainRange(%d, %d) accepted an invalid range", r[0], r[1])
		}
	}
}

// TestTrainRangeStopsAfterFailure: a configuration that cannot be trained
// fails the range at once. With one worker and the invalid entry first, no
// later configuration may start — at this MaxRounds each of the seven would
// train for minutes, so the bound below separates the two behaviours by
// orders of magnitude — and the error still names the first failure.
func TestTrainRangeStopsAfterFailure(t *testing.T) {
	pop, opts, seed := shardTestInputs(t)
	opts.MaxRounds = 1 << 21
	opts.Configs = opts.Space.SampleN(8, rng.New(3))
	opts.Configs[0].BatchSize = -1
	opts.NumConfigs = len(opts.Configs)
	plan, err := NewBuildPlan(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		sh  *BankShard
		err error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		sh, err := plan.TrainRange(0, plan.NumConfigs(), 1)
		done <- result{sh, err}
	}()
	select {
	case r := <-done:
		const want = "core: config 0: fl: batch size -1 / epochs 1 must be >= 1"
		if r.sh != nil || r.err == nil || r.err.Error() != want {
			t.Errorf("TrainRange = %v, %v; want nil, %q", r.sh, r.err, want)
		}
		t.Logf("failed after %v", time.Since(start))
	case <-time.After(20 * time.Second):
		t.Fatal("TrainRange is still training 20 s after its first configuration failed")
	}
}
