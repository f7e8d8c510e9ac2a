package exper

import (
	"os"
	"slices"
	"sync"
	"testing"

	"noisyeval/internal/core"
	"noisyeval/internal/hpo"
)

func TestSuiteGrowBank(t *testing.T) {
	st, err := core.NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(tinyConfig())
	s.SetStore(st)

	oldBank := s.Bank("cifar10")
	oldN := len(oldBank.Configs)
	oldKey := s.BankKeyFor("cifar10")
	femnistKey := s.BankKeyFor("femnist")
	pop := s.Population("cifar10")
	_, oldOpts, seed := s.BankBuildInputs("cifar10")
	oldPopKey := core.BankKeyForPopulation(pop, oldOpts, seed)

	grown, res, err := s.GrowBank("cifar10", 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset != "cifar10" || res.Added != 2 || res.Total != oldN+2 {
		t.Fatalf("result = %+v", res)
	}
	if res.OldKey != oldKey || res.NewKey == oldKey {
		t.Fatalf("content address did not advance: %+v", res)
	}
	if len(grown.Configs) != oldN+2 {
		t.Fatalf("grown bank has %d configs", len(grown.Configs))
	}
	for i := 0; i < oldN; i++ {
		if grown.Configs[i] != oldBank.Configs[i] {
			t.Fatal("growth reordered the existing pool")
		}
	}

	// The suite now serves the grown bank under the advanced address; the
	// in-flight reader's old bank is untouched.
	if s.BankKeyFor("cifar10") != res.NewKey {
		t.Fatal("BankKeyFor does not report the new address")
	}
	if s.Bank("cifar10") != grown {
		t.Fatal("suite does not serve the grown bank")
	}
	if len(oldBank.Configs) != oldN {
		t.Fatal("growth mutated the old bank")
	}
	// Other datasets keep the shared pool and their addresses.
	if s.BankKeyFor("femnist") != femnistKey {
		t.Fatal("growth of cifar10 changed femnist's address")
	}

	// Persistence: the grown bank landed under its new population-level
	// address, and the old address aliases to it.
	_, newOpts, _ := s.BankBuildInputs("cifar10")
	newPopKey := core.BankKeyForPopulation(pop, newOpts, seed)
	if !st.Has(newPopKey) {
		t.Fatal("grown bank not persisted under its new address")
	}
	// While the old entry survives, the old address still serves the exact
	// bank it promises (concrete beats alias); once it is evicted, the alias
	// forwards readers to the grown superset.
	if got := st.Resolve(oldPopKey); got != oldPopKey {
		t.Fatalf("old address with live entry resolves to %s, want itself", got)
	}
	if err := os.Remove(st.Path(oldPopKey)); err != nil {
		t.Fatal(err)
	}
	if got := st.Resolve(oldPopKey); got != newPopKey {
		t.Fatalf("evicted old address resolves to %s, want %s", got, newPopKey)
	}

	// Validation.
	if _, _, err := s.GrowBank("nope", 1); err == nil {
		t.Error("grew an unknown dataset")
	}
	if _, _, err := s.GrowBank("cifar10", 0); err == nil {
		t.Error("grew by zero")
	}

	// Growth composes: a second grow advances the address again.
	_, res2, err := s.GrowBank("cifar10", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.OldKey != res.NewKey || res2.NewKey == res.NewKey || res2.Total != oldN+3 {
		t.Fatalf("second grow = %+v", res2)
	}
}

// TestSuiteGrowBankOverMappedStore: a bank the store serves mapped grows
// without a copy — the grown bank's prefix rows are views of the parent's
// mapping — so the mapping must outlive the grown bank. Every row of the
// grown bank reads back, and it fingerprints like a cold build over the
// union pool, all before the store, which owns the mapping, is closed.
func TestSuiteGrowBankOverMappedStore(t *testing.T) {
	dir := t.TempDir()
	first, err := core.NewBankStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewSuite(tinyConfig())
	warm.SetStore(first)
	warm.Bank("cifar10") // builds and persists the parent

	st, err := core.NewBankStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(tinyConfig())
	s.SetStore(st)
	parent := s.Bank("cifar10")
	if st.Mapped().Files == 0 {
		t.Skip("no mmap on this platform: the store served the parent from the heap")
	}
	grown, _, err := s.GrowBank("cifar10", 2)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for pi := range grown.Partitions {
		for ci := range grown.Configs {
			for ri := range grown.Rounds {
				for _, c := range grown.Errs.Row(pi, ci, ri) {
					sum += uint64(c)
				}
			}
		}
	}
	if sum == 0 {
		t.Fatal("grown bank reads no errors at all")
	}
	if &grown.Errs.Row(0, 0, 0)[0] != &parent.Errs.Row(0, 0, 0)[0] {
		t.Fatal("grown bank copied the mapped parent's counts")
	}
	pop := s.Population("cifar10")
	_, opts, bankSeed := s.BankBuildInputs("cifar10")
	cold, err := core.BuildBank(pop, opts, bankSeed)
	if err != nil {
		t.Fatal(err)
	}
	if core.BankFingerprint(grown) != core.BankFingerprint(cold) {
		t.Fatal("bank grown over a mapped parent differs from a cold build over the union pool")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// unmemoisedBankKey recomputes a dataset's bank address from scratch — what
// bankKeyFor did on every call before it kept a memo.
func unmemoisedBankKey(s *Suite, name string) string {
	if b, ok := s.installedBank(name); ok {
		return "installed-" + core.BankFingerprint(b)
	}
	return core.BankKey(s.BankBuildInputs(name))
}

// TestSuiteBankKeyMemo: the memoised address is the un-memoised one — before
// and after GrowBank and SetBank replace what it is derived from — and run
// keys follow it.
func TestSuiteBankKeyMemo(t *testing.T) {
	s := NewSuite(tinyConfig())
	req := TuneRequest{Dataset: "cifar10", Method: hpo.RandomSearch{}, Noise: core.Noise{SampleCount: 2}, Trials: 2, Seed: 5}
	check := func(when string) string {
		t.Helper()
		for _, name := range DatasetNames {
			want := unmemoisedBankKey(s, name)
			for i := 0; i < 2; i++ { // the computing call and the memo hit
				if got := s.BankKeyFor(name); got != want {
					t.Fatalf("%s: BankKeyFor(%s) = %s, want %s", when, name, got, want)
				}
			}
		}
		bankKey := unmemoisedBankKey(s, req.Dataset)
		settings := req.Noise.Settings(hpo.Settings{Budget: s.Cfg.Budget()})
		want := core.RunKey(bankKey, methodKey(req.Method), req.Noise, settings, req.Trials, req.Seed)
		if got, err := s.RunKeyFor(req); err != nil || got != want {
			t.Fatalf("%s: RunKeyFor = %s, %v; want %s", when, got, err, want)
		}
		return bankKey
	}
	fresh := check("fresh suite")
	if _, _, err := s.GrowBank("cifar10", 1); err != nil {
		t.Fatal(err)
	}
	grown := check("after GrowBank")
	if grown == fresh {
		t.Fatal("GrowBank left the address where it was")
	}
	other := NewSuite(tinyConfig())
	s.SetBank("femnist", other.Bank("femnist"))
	check("after SetBank")
	s.SetBank("femnist", other.Bank("reddit")) // a different artifact under the same name
	check("after a second SetBank")
	if got := s.BankKeyFor("cifar10"); got != grown {
		t.Fatalf("SetBank(femnist) moved cifar10's address: %s → %s", grown, got)
	}
}

// TestSuiteBankKeyMemoConcurrentGrow: runs racing a sequence of grows never
// report one generation's address with another generation's bank. Each
// result is checked against a reference suite grown serially, looked up by
// the address the result claims.
func TestSuiteBankKeyMemoConcurrentGrow(t *testing.T) {
	const grows = 4
	req := TuneRequest{Dataset: "cifar10", Method: hpo.RandomSearch{}, Noise: core.Noise{SampleCount: 2}, Trials: 3, Seed: 11}
	ref := NewSuite(tinyConfig())
	want := map[string]*TuneResult{} // by bank key
	for g := 0; g <= grows; g++ {
		if g > 0 {
			if _, _, err := ref.GrowBank(req.Dataset, 1); err != nil {
				t.Fatal(err)
			}
		}
		res, err := ref.RunTune(req, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[res.BankKey] = res
	}
	if len(want) != grows+1 {
		t.Fatalf("%d grows produced %d distinct addresses", grows, len(want))
	}

	s := NewSuite(tinyConfig())
	s.Bank(req.Dataset)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := s.RunTune(req, nil)
				if err != nil {
					t.Error(err)
					return
				}
				exp, ok := want[res.BankKey]
				if !ok {
					t.Errorf("run reports bank key %s, which no generation has", res.BankKey)
					return
				}
				if res.RunKey != exp.RunKey || !slices.Equal(res.Finals, exp.Finals) {
					t.Errorf("bank key %s paired with another generation's bank: finals %v, want %v",
						res.BankKey, res.Finals, exp.Finals)
					return
				}
			}
		}()
	}
	for g := 0; g < grows; g++ {
		if _, _, err := s.GrowBank(req.Dataset, 1); err != nil {
			t.Error(err)
		}
	}
	close(done)
	wg.Wait()
	// At rest, the suite is on the last generation under its own address.
	res, err := s.RunTune(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.BankKey != unmemoisedBankKey(s, req.Dataset) || !slices.Equal(res.Finals, want[res.BankKey].Finals) {
		t.Fatalf("after the grows: bank key %s, finals %v", res.BankKey, res.Finals)
	}
}
