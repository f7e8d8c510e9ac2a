// Package core implements the paper's experimental protocol: the ConfigBank
// of pre-trained hyperparameter configurations with per-client error records
// (the artifact's fedtrain_simple + analysis methodology — train 128 configs
// once, then bootstrap hundreds of tuning trials from the recorded
// evaluations), the oracles that tuning methods query (bank-backed and
// live), and the Tuner/Trial orchestration used by every experiment.
package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"noisyeval/internal/data"
	"noisyeval/internal/fl"
	"noisyeval/internal/hpo"
)

// Bank holds the study's reusable training artifact: for every configuration
// and every checkpoint (SHA rung), the error of the trained model on every
// validation client under every evaluation partition. All noisy-evaluation
// experiments are bootstrap resamples of these records, exactly as in the
// paper's analysis pipeline. The records are wrong-counts; an error is a
// count over the client's example count (ErrMatrix).
type Bank struct {
	// SpecName identifies the dataset population.
	SpecName string
	// Seed is the RNG seed the bank was built with.
	Seed uint64
	// Configs is the candidate pool (the paper's 128 RS draws).
	Configs []fl.HParams
	// Rounds is the ascending checkpoint grid (SHA rungs, e.g. 5..405).
	Rounds []int
	// Partitions are the iid-repartition fractions p of the validation
	// pool for which errors were recorded (Figure 4); always includes 0
	// (the natural partition) at index 0.
	Partitions []float64
	// Errs is the dense error tensor: Errs.Row(p, c, r) is the per-client
	// wrong-count vector of config c at checkpoint r under partition p, a
	// view into one contiguous arena (see ErrMatrix).
	Errs ErrMatrix
	// ExampleCounts[p][k] is validation client k's example count under
	// partition p: the divisor of its error rates and its weight in Eq. 2
	// (repartitioning preserves sizes, so rows are equal, but they are
	// stored per partition for integrity).
	ExampleCounts [][]int
	// Diverged[c] reports whether config c's training hit NaN.
	Diverged []bool

	// index and fastIndex are built on first use under indexOnce, so a
	// hand-assembled Bank literal is safe to share across goroutines before
	// its first lookup (decoded and assembled banks build them eagerly).
	indexOnce sync.Once
	index     map[fl.HParams]int
	// fastIndex is an open-addressing table keyed by the raw bits of each
	// config, probed before the Go map on the ConfigIndex hot path. Float
	// bits and float equality differ only around NaN and ±0, so the table
	// is disabled (left nil) when any pool config carries such a field —
	// then lookups fall through to the map and semantics are unchanged.
	fastIndex []int32
	fastMask  uint64
}

// BuildOptions configures bank construction.
type BuildOptions struct {
	// NumConfigs is the candidate pool size (paper: 128).
	NumConfigs int
	// MaxRounds is the per-config training budget (paper: 405).
	MaxRounds int
	// Eta and Levels define the checkpoint rung grid (paper: 3, 5).
	Eta, Levels int
	// Partitions lists iid fractions p to record (nil = natural only).
	Partitions []float64
	// Train configures the federated trainer.
	Train fl.Options
	// Workers bounds build parallelism (0 = GOMAXPROCS). It never affects
	// bank content, only wall-clock.
	Workers int
	// Space is the sampling space for the pool (zero value = DefaultSpace).
	Space hpo.Space
	// Configs, when non-empty, overrides pool sampling. The transfer
	// experiments (Figures 10/11/12/14) train the SAME pool on every
	// dataset, so their banks share this list.
	Configs []fl.HParams
}

// DefaultBuildOptions returns the paper's bank shape.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{
		NumConfigs: 128,
		MaxRounds:  405,
		Eta:        3,
		Levels:     5,
		Train:      fl.DefaultOptions(),
		Space:      hpo.DefaultSpace(),
	}
}

// BuildBank trains opts.NumConfigs configurations on the population and
// records per-client errors at every checkpoint under every partition.
// Construction is deterministic in (pop, opts, seed) and parallel across
// configurations. It is the single-process composition of the shardable
// pipeline in shard.go: plan, train the full config range, assemble — the
// exact code path internal/dist workers run on their index ranges, which is
// what makes a fleet-assembled bank byte-identical to a local one.
func BuildBank(pop *data.Population, opts BuildOptions, seed uint64) (*Bank, error) {
	plan, err := NewBuildPlan(pop, opts, seed)
	if err != nil {
		return nil, err
	}
	shard, err := plan.TrainRange(0, plan.NumConfigs(), opts.Workers)
	if err != nil {
		return nil, err
	}
	return AssembleBank(plan, []*BankShard{shard})
}

// ensureIndex builds the config lookup index exactly once.
func (b *Bank) ensureIndex() { b.indexOnce.Do(b.buildIndex) }

// buildIndex creates the config lookup map and, when safe, the bit-keyed
// fast table probed before it.
func (b *Bank) buildIndex() {
	b.index = make(map[fl.HParams]int, len(b.Configs))
	for i, c := range b.Configs {
		b.index[c] = i
	}
	// Bit-hashing is only equivalent to map lookup when bit equality and
	// float equality coincide for every stored key: a NaN field would
	// bit-match yet map-miss, and a ±0 field could alias a map key with the
	// opposite zero. Neither occurs for real banks (configs are log-uniform
	// and uniform draws plus fixed non-zero constants), but a poisoned pool
	// silently falls back to the exact map.
	for _, c := range b.Configs {
		for _, f := range [...]float64{c.ServerLR, c.Beta1, c.Beta2, c.LRDecay, c.ClientLR, c.ClientMomentum, c.WeightDecay} {
			if f != f || f == 0 {
				return
			}
		}
	}
	size := uint64(4)
	for size < uint64(len(b.Configs))*2 {
		size *= 2
	}
	table := make([]int32, size)
	for i := range table {
		table[i] = -1
	}
	mask := size - 1
	for i, c := range b.Configs {
		slot := hashHParams(c) & mask
		for table[slot] >= 0 {
			// Bit-equal duplicates keep the last index, matching the map's
			// overwrite; bit-distinct keys probe onward.
			if b.Configs[table[slot]] == c {
				break
			}
			slot = (slot + 1) & mask
		}
		table[slot] = int32(i)
	}
	b.fastIndex, b.fastMask = table, mask
}

// hashHParams mixes the raw bits of every config field (FNV-1a over 64-bit
// words). Cheaper than the runtime's per-float type hash, which is what makes
// ConfigIndex viable on the per-evaluation hot path.
func hashHParams(c fl.HParams) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ math.Float64bits(c.ServerLR)) * prime
	h = (h ^ math.Float64bits(c.Beta1)) * prime
	h = (h ^ math.Float64bits(c.Beta2)) * prime
	h = (h ^ math.Float64bits(c.LRDecay)) * prime
	h = (h ^ math.Float64bits(c.ClientLR)) * prime
	h = (h ^ math.Float64bits(c.ClientMomentum)) * prime
	h = (h ^ math.Float64bits(c.WeightDecay)) * prime
	h = (h ^ uint64(c.BatchSize)) * prime
	h = (h ^ uint64(c.Epochs)) * prime
	return h ^ h>>32
}

// ConfigIndex returns the pool index of cfg, or an error if the config is
// not a bank member (bank oracles only serve pool configs).
func (b *Bank) ConfigIndex(cfg fl.HParams) (int, error) {
	b.ensureIndex()
	if mask := b.fastMask; mask != 0 {
		for slot := hashHParams(cfg) & mask; ; slot = (slot + 1) & mask {
			i := b.fastIndex[slot]
			if i < 0 {
				break // bit-miss: fall through to the exact map
			}
			if b.Configs[i] == cfg {
				return int(i), nil
			}
		}
	}
	if i, ok := b.index[cfg]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("core: config %+v is not in the bank", cfg)
}

// PartitionIndex returns the index of iid fraction p.
func (b *Bank) PartitionIndex(p float64) (int, error) {
	for i, v := range b.Partitions {
		if v == p {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: partition p=%g not recorded (have %v)", p, b.Partitions)
}

// CheckpointIndex returns the index of the highest checkpoint <= rounds
// (clamped to the first checkpoint for smaller values).
func (b *Bank) CheckpointIndex(rounds int) int {
	idx := sort.SearchInts(b.Rounds, rounds+1) - 1
	if idx < 0 {
		idx = 0
	}
	return idx
}

// MaxRounds returns the highest checkpoint.
func (b *Bank) MaxRounds() int { return b.Rounds[len(b.Rounds)-1] }

// NumClients returns the validation pool size.
func (b *Bank) NumClients() int { return len(b.ExampleCounts[0]) }

// ClientErrors returns the per-client error vector for (partition p, config
// index, rounds) in a fresh slice: each client's wrong-count over its example
// count.
func (b *Bank) ClientErrors(partition float64, configIdx, rounds int) ([]float64, error) {
	pi, err := b.PartitionIndex(partition)
	if err != nil {
		return nil, err
	}
	if configIdx < 0 || configIdx >= len(b.Configs) {
		return nil, fmt.Errorf("core: config index %d out of range [0, %d)", configIdx, len(b.Configs))
	}
	row := b.Errs.Row(pi, configIdx, b.CheckpointIndex(rounds))
	return ratesInto(nil, row, rateDivisors(b.ExampleCounts[pi])), nil
}

// Validate checks the bank's structural integrity (used after loading).
func (b *Bank) Validate() error {
	if len(b.Configs) == 0 || len(b.Rounds) == 0 || len(b.Partitions) == 0 {
		return fmt.Errorf("core: bank has empty configs/rounds/partitions")
	}
	if b.Partitions[0] != 0 {
		return fmt.Errorf("core: partition 0 must be the natural split, got %v", b.Partitions)
	}
	if !sort.IntsAreSorted(b.Rounds) {
		return fmt.Errorf("core: checkpoint rounds %v not sorted", b.Rounds)
	}
	if len(b.ExampleCounts) != len(b.Partitions) {
		return fmt.Errorf("core: partition dimension mismatch")
	}
	n := len(b.ExampleCounts[0])
	for pi, row := range b.ExampleCounts {
		if len(row) != n {
			return fmt.Errorf("core: example counts row %d has %d clients, want %d", pi, len(row), n)
		}
	}
	if err := b.Errs.CheckShape(len(b.Partitions), len(b.Configs), len(b.Rounds), n); err != nil {
		return err
	}
	if len(b.Diverged) != len(b.Configs) {
		return fmt.Errorf("core: diverged flags mismatch")
	}
	return nil
}

func dedupFloats(xs []float64) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
