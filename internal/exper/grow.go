package exper

import (
	"context"
	"fmt"

	"noisyeval/internal/core"
	"noisyeval/internal/fl"
	"noisyeval/internal/hpo"
	"noisyeval/internal/rng"
)

// GrowResult reports one bank growth: the dataset, the serve-visible
// content addresses before and after (BankKeyFor — the bank_key runs and
// sessions record, not a store key), and the pool sizes.
type GrowResult struct {
	Dataset string
	OldKey  string // bank_key before growth: runs recorded under it keep it, nothing new resolves it
	NewKey  string // bank_key after growth: every later run, session and grow uses it
	Added   int    // configs trained by this growth
	Total   int    // pool size after growth
}

// GrowBank extends the dataset's bank by add freshly sampled configs: it
// trains exactly the new index range [len(pool), len(pool)+add) with the
// same TrainRange unit a dist fleet worker runs, appends it onto the
// existing bank (core.Bank.Extend), and installs the grown bank as the
// dataset's bank — from then on BankBuildInputs reports the union pool, so
// the bank's content address (and every run key derived from it) advances.
// The extra configs are sampled deterministically from (suite seed, dataset,
// current pool size), making the grown bank byte-identical to a cold build
// over the union pool with the same seed.
//
// With a store attached, the grown bank is written whole (BankStore.Put)
// under its new population-level content address; the pre-growth entry
// stays where it was, holding exactly the pool its address promises.
// Growths are serialized per suite; in-flight readers of the old bank keep
// their consistent (smaller) view.
//
// Banks installed via SetBank cannot grow: their build inputs are unknown,
// so there is no plan to extend against.
func (s *Suite) GrowBank(name string, add int) (*core.Bank, GrowResult, error) {
	return s.GrowBankCtx(context.Background(), name, add)
}

// GrowBankCtx is GrowBank whose training stops once ctx is done
// (core.BuildPlan.TrainRangeCtx); the suite's bank is then left as it was.
func (s *Suite) GrowBankCtx(ctx context.Context, name string, add int) (*core.Bank, GrowResult, error) {
	if !KnownDataset(name) {
		return nil, GrowResult{}, fmt.Errorf("exper: grow bank: unknown dataset %q", name)
	}
	if add < 1 {
		return nil, GrowResult{}, fmt.Errorf("exper: grow bank: add %d must be >= 1", add)
	}
	if _, ok := s.installedBank(name); ok {
		return nil, GrowResult{}, fmt.Errorf("exper: grow bank: %s uses an installed bank (unknown build inputs)", name)
	}
	s.growMu.Lock()
	defer s.growMu.Unlock()

	oldKey := s.bankKeyFor(name)
	old := s.Bank(name)
	pop := s.Population(name)
	_, oldOpts, seed := s.BankBuildInputs(name)

	cur := old.Configs
	extra := hpo.DefaultSpace().SampleN(add, rng.New(s.Cfg.Seed).Splitf("grow-%s-%d", name, len(cur)))
	union := make([]fl.HParams, 0, len(cur)+add)
	union = append(append(union, cur...), extra...)

	opts := oldOpts
	opts.Configs = union
	plan, err := core.NewBuildPlan(pop, opts, seed)
	if err != nil {
		return nil, GrowResult{}, fmt.Errorf("exper: grow bank %s: %w", name, err)
	}
	shard, err := plan.TrainRangeCtx(ctx, len(cur), len(union), s.Cfg.Workers)
	if err != nil {
		return nil, GrowResult{}, fmt.Errorf("exper: grow bank %s: %w", name, err)
	}
	grown, err := old.Extend(plan, []*core.BankShard{shard})
	if err != nil {
		return nil, GrowResult{}, fmt.Errorf("exper: grow bank %s: %w", name, err)
	}
	s.builds.Add(1)

	if st := s.Store(); st != nil {
		if err := st.Put(core.BankKeyForPopulation(pop, opts, seed), grown); err != nil {
			return nil, GrowResult{}, fmt.Errorf("exper: grow bank %s: %w", name, err)
		}
	}

	// Install the grown bank and the union pool atomically: from here on
	// Bank(name) serves the grown bank and BankBuildInputs reports the
	// union pool, advancing the content address.
	e := &bankEntry{bank: grown}
	e.once.Do(func() {})
	s.mu.Lock()
	s.grownPools[name] = union
	s.banks[name] = e
	s.ready[name] = true
	s.invalidateBankKeyLocked(name)
	s.mu.Unlock()

	return grown, GrowResult{
		Dataset: name,
		OldKey:  oldKey,
		NewKey:  s.bankKeyFor(name),
		Added:   add,
		Total:   len(union),
	}, nil
}

// poolFor returns the dataset's effective config pool: the grown union once
// GrowBank has run, the shared pool otherwise.
func (s *Suite) poolFor(name string) []fl.HParams {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.grownPools[name]; ok {
		return p
	}
	return s.sharedPoolLocked()
}
