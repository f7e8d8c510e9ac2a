package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"noisyeval/internal/data"
	"noisyeval/internal/fl"
	"noisyeval/internal/hpo"
	"noisyeval/internal/rng"
)

// This file splits bank construction into a deterministic skeleton
// (BuildPlan) and range-restricted training (TrainRange → BankShard), so one
// code path serves both the single-process BuildBank and the internal/dist
// coordinator/worker fleet. Determinism rests on the rng package's labelled
// Split: every per-config trainer stream is derived from (seed, "config-i")
// alone, never from execution order, so a worker that trains only configs
// [lo, hi) reproduces exactly the streams a full local build would hand those
// configs. AssembleBank therefore yields a bank byte-identical to BuildBank
// for the same (pop, opts, seed) no matter how the index space was sharded —
// pinned by TestShardedBuildByteIdentical.

// BuildPlan is the precomputed deterministic skeleton of one bank build:
// checkpoint grid, the pooled validation examples with each partition's
// clients as index lists into them, and the sampled config pool. Creating a
// plan is cheap (no training); it exists so shards and the final assembly
// agree on every build input. Plans are safe for concurrent TrainRange calls.
type BuildPlan struct {
	pop     *data.Population
	opts    BuildOptions // normalized; Workers zeroed (content-independent)
	seed    uint64
	rounds  []int
	parts   []float64
	pooled  []data.Example // every validation example once, client by client
	srcs    [][][]int32    // [partition][client] positions in pooled
	counts  [][]int
	configs []fl.HParams
	root    *rng.RNG
}

// NewBuildPlan validates the build inputs and derives the skeleton BuildBank
// (local or sharded) trains against.
func NewBuildPlan(pop *data.Population, opts BuildOptions, seed uint64) (*BuildPlan, error) {
	if opts.NumConfigs < 1 {
		return nil, fmt.Errorf("core: NumConfigs %d must be >= 1", opts.NumConfigs)
	}
	if opts.MaxRounds < 1 {
		return nil, fmt.Errorf("core: MaxRounds %d must be >= 1", opts.MaxRounds)
	}
	opts = normalizeBuildOptions(opts)

	root := rng.New(seed)
	p := &BuildPlan{
		pop:    pop,
		opts:   opts,
		seed:   seed,
		rounds: hpo.RungRounds(opts.MaxRounds, opts.Eta, opts.Levels),
		parts:  dedupFloats(append([]float64{0}, opts.Partitions...)),
		root:   root,
	}

	// Every partition's clients hold examples of the same pool — partition 0
	// its natural split, the others iid resamples of it (sizes preserved) —
	// so the plan keeps the pool once and each partition as positions in it:
	// a checkpoint forwards every example once and counts per partition
	// (TrainRange). Streams are labelled by the fraction, so every process
	// derives identical sources.
	p.pooled = data.PooledExamples(pop.Val)
	p.srcs = make([][][]int32, len(p.parts))
	p.counts = make([][]int, len(p.parts))
	for pi, frac := range p.parts {
		p.srcs[pi] = data.RepartitionSources(pop.Val, frac, root.Splitf("repartition-%.3f", frac))
		p.counts[pi] = make([]int, len(p.srcs[pi]))
		for k, src := range p.srcs[pi] {
			p.counts[pi][k] = len(src)
		}
	}

	p.configs = opts.Configs
	if len(p.configs) == 0 {
		p.configs = opts.Space.SampleN(opts.NumConfigs, root.Split("pool"))
	}
	return p, nil
}

// NumConfigs returns the size of the config pool (the shardable dimension).
func (p *BuildPlan) NumConfigs() int { return len(p.configs) }

// BankShard holds the training output for one contiguous config index range
// [Lo, Hi) of a bank build: a dense error tensor over the shard's configs
// (shard-local index) plus divergence flags. Shards are the unit of work the
// dist coordinator leases to workers; assembly adopts each shard's count
// block into the final bank without copying it.
type BankShard struct {
	// Lo and Hi bound the config index range [Lo, Hi).
	Lo, Hi int
	// Errs.Row(pi, ci-Lo, ri) is the per-client error vector of config ci
	// at checkpoint ri under partition pi.
	Errs ErrMatrix
	// Diverged[ci-Lo] reports whether config ci's training hit NaN.
	Diverged []bool
}

// Validate checks the shard against a plan: its range, its shape, and every
// count against its client's example count.
func (sh *BankShard) Validate(p *BuildPlan) error {
	if sh.Lo < 0 || sh.Hi > p.NumConfigs() || sh.Lo >= sh.Hi {
		return fmt.Errorf("core: shard range [%d, %d) invalid for %d configs", sh.Lo, sh.Hi, p.NumConfigs())
	}
	n := sh.Hi - sh.Lo
	if len(sh.Diverged) != n {
		return fmt.Errorf("core: shard diverged length %d, want %d", len(sh.Diverged), n)
	}
	if err := sh.Errs.CheckShape(len(p.parts), n, len(p.rounds), len(p.counts[0])); err != nil {
		return fmt.Errorf("core: shard [%d, %d): %w", sh.Lo, sh.Hi, err)
	}
	if err := sh.Errs.checkCounts(p.counts); err != nil {
		return fmt.Errorf("core: shard [%d, %d): %w", sh.Lo, sh.Hi, err)
	}
	return nil
}

// TrainRange is TrainRangeCtx without cancellation.
func (p *BuildPlan) TrainRange(lo, hi, workers int) (*BankShard, error) {
	return p.TrainRangeCtx(context.Background(), lo, hi, workers)
}

// TrainRangeCtx trains configs [lo, hi) of the plan's pool and records their
// errors at every checkpoint under every partition. workers bounds
// parallelism within the range (0 = GOMAXPROCS); it never affects content.
// Once ctx is done no configuration starts and every one in flight stops at
// its next checkpoint, and the call returns ctx's error unless every
// configuration had finished: a cancelled build or an expired lease costs at
// most one checkpoint's training per worker.
func (p *BuildPlan) TrainRangeCtx(ctx context.Context, lo, hi, workers int) (*BankShard, error) {
	if lo < 0 || hi > len(p.configs) || lo >= hi {
		return nil, fmt.Errorf("core: train range [%d, %d) invalid for %d configs", lo, hi, len(p.configs))
	}
	n := hi - lo
	sh := &BankShard{
		Lo: lo, Hi: hi,
		Errs:     NewErrMatrix(len(p.parts), n, len(p.rounds), len(p.counts[0])),
		Diverged: make([]bool, n),
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, workers)
		firstErr error       // written by the goroutine that sets failed
		failed   atomic.Bool // stops the launches
		stopped  atomic.Bool // some configuration was cut short by ctx
	)
	for ci := lo; ci < hi; ci++ {
		sem <- struct{}{}
		// A configuration that cannot be trained fails the whole range, so
		// nothing started after it would be kept: stop here instead of
		// training the rest to MaxRounds first. A done ctx likewise.
		if failed.Load() {
			break
		}
		if ctx.Err() != nil {
			stopped.Store(true)
			break
		}
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			defer func() { <-sem }()
			tr, err := fl.NewTrainer(p.pop, p.configs[ci], p.opts.Train, p.root.Splitf("config-%d", ci))
			if err != nil {
				if failed.CompareAndSwap(false, true) {
					firstErr = fmt.Errorf("core: config %d: %w", ci, err)
				}
				return
			}
			for ri, r := range p.rounds {
				if ctx.Err() != nil {
					stopped.Store(true)
					return
				}
				tr.TrainTo(r)
				flags := tr.WrongFlags(p.pooled)
				for pi := range p.parts {
					fl.WrongCountsInto(sh.Errs.Row(pi, ci-lo, ri), flags, p.srcs[pi])
				}
			}
			sh.Diverged[ci-lo] = tr.Diverged()
		}(ci)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if stopped.Load() {
		return nil, fmt.Errorf("core: train range [%d, %d): %w", lo, hi, ctx.Err())
	}
	return sh, nil
}

// ShardRanges splits n configs into contiguous [lo, hi) ranges of at most
// size configs each (size <= 0 means one shard covering everything).
func ShardRanges(n, size int) [][2]int {
	if size <= 0 || size > n {
		size = n
	}
	var out [][2]int
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// AssembleBank combines shards covering the plan's full config range into a
// validated bank. Every config index must be covered by exactly one shard;
// gaps, overlaps, and shape mismatches are errors. Because shard content
// depends only on (pop, opts, seed, range), the assembled bank is
// byte-identical to a single-process BuildBank of the same inputs. The bank
// adopts each shard's count blocks, in config order, without copying them:
// its rows are views of the shards' memory, so a shard must not be written
// after assembly.
func AssembleBank(p *BuildPlan, shards []*BankShard) (*Bank, error) {
	b := &Bank{
		SpecName:      p.pop.Spec.Name,
		Seed:          p.seed,
		Configs:       p.configs,
		Rounds:        p.rounds,
		Partitions:    p.parts,
		ExampleCounts: p.counts,
		Errs:          ErrMatrix{Parts: len(p.parts), Configs: len(p.configs), Checkpoints: len(p.rounds), Clients: len(p.counts[0])},
		Diverged:      make([]bool, len(p.configs)),
	}

	sorted := append([]*BankShard(nil), shards...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	next := 0
	for _, sh := range sorted {
		if sh.Lo != next {
			if sh.Lo < next {
				return nil, fmt.Errorf("core: assemble: shards overlap at config %d", sh.Lo)
			}
			return nil, fmt.Errorf("core: assemble: configs [%d, %d) uncovered", next, sh.Lo)
		}
		if err := sh.Validate(p); err != nil {
			return nil, fmt.Errorf("core: assemble: %w", err)
		}
		for _, blk := range sh.Errs.blocks {
			b.Errs.blocks = append(b.Errs.blocks, countBlock{lo: sh.Lo + blk.lo, hi: sh.Lo + blk.hi, counts: blk.counts})
		}
		copy(b.Diverged[sh.Lo:sh.Hi], sh.Diverged)
		next = sh.Hi
	}
	if next != len(p.configs) {
		return nil, fmt.Errorf("core: assemble: configs [%d, %d) uncovered", next, len(p.configs))
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("core: assemble: %w", err)
	}
	return b, nil
}
