package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"noisyeval/internal/core/bankseg"
	"noisyeval/internal/data"
	"noisyeval/internal/eval"
	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

func TestSaveBankV4RoundTrip(t *testing.T) {
	b, _ := tinyBank(t)
	path := filepath.Join(t.TempDir(), "v4.bank")
	if err := SaveBankV4(b, path); err != nil {
		t.Fatal(err)
	}

	// Heap load (LoadBank auto-detects v4 and verifies every payload CRC).
	heap, err := LoadBank(path)
	if err != nil {
		t.Fatal(err)
	}
	if hashBankContent(heap) != hashBankContent(b) {
		t.Fatal("heap-loaded v4 bank differs from the original")
	}

	// Mapped open serves the same content zero-copy.
	mapped, closer, err := OpenBankMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if hashBankContent(mapped) != hashBankContent(b) {
		t.Fatal("mapped v4 bank differs from the original")
	}
	if BankFingerprint(mapped) != BankFingerprint(heap) {
		t.Fatal("mapped bank fingerprints differently from its heap twin")
	}

	// Determinism: saving the same bank again yields identical bytes.
	path2 := filepath.Join(t.TempDir(), "v4b.bank")
	if err := SaveBankV4(b, path2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(path2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("SaveBankV4 is not byte-deterministic")
	}
}

// TestMappedOracleBitIdentical is the golden mapped-serving test: every
// BankOracle read against the mapped bank must be bit-identical to the same
// read against the heap load of the same file.
func TestMappedOracleBitIdentical(t *testing.T) {
	b, _ := tinyBank(t)
	path := filepath.Join(t.TempDir(), "v4.bank")
	if err := SaveBankV4(b, path); err != nil {
		t.Fatal(err)
	}
	heap, err := LoadBank(path)
	if err != nil {
		t.Fatal(err)
	}
	mapped, closer, err := OpenBankMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	scheme := eval.Scheme{Count: 5, Weighted: true}
	oh, err := NewBankOracle(heap, 0.5, scheme, 3)
	if err != nil {
		t.Fatal(err)
	}
	om, err := NewBankOracle(mapped, 0.5, scheme, 3)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		th, tm := oh.WithTrial(trial), om.WithTrial(trial)
		for ci := range heap.Configs {
			for _, r := range heap.Rounds {
				id := "t"
				eh, err1 := th.EvaluateIndex(ci, r, id)
				em, err2 := tm.EvaluateIndex(ci, r, id)
				if err1 != nil || err2 != nil {
					t.Fatalf("evaluate (%d,%d): %v / %v", ci, r, err1, err2)
				}
				if eh.Observed != em.Observed || eh.True != em.True {
					t.Fatalf("trial %d config %d rounds %d: heap (%v,%v) != mapped (%v,%v)",
						trial, ci, r, eh.Observed, eh.True, em.Observed, em.True)
				}
			}
		}
	}
}

// growFixture builds a 4-config bank plus the plan and shard that extend it
// to 6 configs, and the cold-built 6-config reference bank.
func growFixture(t testing.TB) (base, cold *Bank, plan *BuildPlan, shard *BankShard) {
	t.Helper()
	pop := data.MustGenerate(tinySpec(), rng.New(1))
	opts := tinyBuildOptions()
	opts.NumConfigs, opts.MaxRounds = 4, 9
	base, err := BuildBank(pop, opts, 7)
	if err != nil {
		t.Fatal(err)
	}
	extra := opts.Space.SampleN(2, rng.New(7).Splitf("grow-%s-%d", base.SpecName, len(base.Configs)))
	union := append(append([]fl.HParams{}, base.Configs...), extra...)
	optsU := opts
	optsU.Configs = union
	cold, err = BuildBank(pop, optsU, 7)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = NewBuildPlan(pop, optsU, 7)
	if err != nil {
		t.Fatal(err)
	}
	shard, err = plan.TrainRange(len(base.Configs), len(union), 0)
	if err != nil {
		t.Fatal(err)
	}
	return base, cold, plan, shard
}

// TestGrownBankMatchesColdBuild is the golden growth test: extending a bank
// with freshly trained configs must reproduce, content-hash-identical, a
// cold build over the union pool with the same seed.
func TestGrownBankMatchesColdBuild(t *testing.T) {
	base, cold, plan, shard := growFixture(t)
	grown, err := base.Extend(plan, []*BankShard{shard})
	if err != nil {
		t.Fatal(err)
	}
	if hashBankContent(grown) != hashBankContent(cold) {
		t.Fatal("grown bank content differs from cold build over the union pool")
	}
	if len(base.Configs) != 4 {
		t.Fatal("Extend mutated its receiver")
	}
	// And the on-disk grow path reproduces it too, through both load paths.
	path := filepath.Join(t.TempDir(), "grow.bank")
	if err := SaveBankV4(base, path); err != nil {
		t.Fatal(err)
	}
	if _, err := ExtendBankV4(path, plan, []*BankShard{shard}); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadBank(path)
	if err != nil {
		t.Fatal(err)
	}
	if hashBankContent(reloaded) != hashBankContent(cold) {
		t.Fatal("reloaded grown file differs from cold build")
	}
	mapped, closer, err := OpenBankMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if hashBankContent(mapped) != hashBankContent(cold) {
		t.Fatal("mapped grown file differs from cold build")
	}
}

// TestAssemblyAndGrowthCopyNoCounts pins the aliasing contract: a bank
// assembled from shards reads the shards' memory, and a grown bank reads its
// parent's for the prefix and the new shard's for the rest — no count is
// copied on either path.
func TestAssemblyAndGrowthCopyNoCounts(t *testing.T) {
	base, _, plan, shard := growFixture(t)
	grown, err := base.Extend(plan, []*BankShard{shard})
	if err != nil {
		t.Fatal(err)
	}
	for pi := range grown.Partitions {
		for ci := range grown.Configs {
			for ri := range grown.Rounds {
				var want *uint32
				if ci < shard.Lo {
					want = &base.Errs.Row(pi, ci, ri)[0]
				} else {
					want = &shard.Errs.Row(pi, ci-shard.Lo, ri)[0]
				}
				if &grown.Errs.Row(pi, ci, ri)[0] != want {
					t.Fatalf("grown row (%d,%d,%d) is a copy, not its source's memory", pi, ci, ri)
				}
			}
		}
	}

	pop, opts, seed := shardTestInputs(t)
	sp, err := NewBuildPlan(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	var shards []*BankShard
	for _, r := range ShardRanges(sp.NumConfigs(), 2) {
		sh, err := sp.TrainRange(r[0], r[1], 0)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sh)
	}
	assembled, err := AssembleBank(sp, shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		for ci := sh.Lo; ci < sh.Hi; ci++ {
			if &assembled.Errs.Row(1, ci, 2)[0] != &sh.Errs.Row(1, ci-sh.Lo, 2)[0] {
				t.Fatalf("assembled row of config %d is a copy, not its shard's memory", ci)
			}
		}
	}
}

// TestCountsAboveExamplesRejected: a count above its client's example count
// (an error rate above 1) is refused wherever counts arrive whole — a shard
// (BankShard.Validate, so AssembleBank and a dist upload) and a heap decode
// (DecodeBank, so LoadBank and peer transfers, as a *CorruptError). A
// mapped open reads no counts and so still opens such a file.
func TestCountsAboveExamplesRejected(t *testing.T) {
	pop, opts, seed := shardTestInputs(t)
	plan, err := NewBuildPlan(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := plan.TrainRange(0, plan.NumConfigs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AssembleBank(plan, []*BankShard{sh})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "over.bank")
	if err := SaveBankV4(b, path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	const pi, ci, ri, k = 1, 2, 1, 3
	row := sh.Errs.Row(pi, ci, ri) // also b's row: assembly adopted the shard
	row[k] = uint32(plan.counts[pi][k]) + 1
	if err := sh.Validate(plan); err == nil {
		t.Error("shard with a count above its example count validated")
	}
	if _, err := AssembleBank(plan, []*BankShard{sh}); err == nil {
		t.Error("AssembleBank accepted a count above its example count")
	}
	if err := SaveBankV4(b, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := DecodeBank(raw); !errors.As(err, &ce) || IsStaleBankFormat(err) {
		t.Fatalf("DecodeBank of a count above its example count: err = %v, want *CorruptError", err)
	}
	if _, err := DecodeBank(good); err != nil {
		t.Fatalf("DecodeBank of the intact image: %v", err)
	}
	mapped, closer, err := OpenBankMapped(path)
	if err != nil {
		t.Fatalf("mapped open: %v", err)
	}
	defer closer.Close()
	if got := mapped.Errs.Row(pi, ci, ri)[k]; got != row[k] {
		t.Fatalf("mapped count = %d, want %d", got, row[k])
	}
}

func TestExtendValidatesPlan(t *testing.T) {
	base, _, plan, shard := growFixture(t)
	// Missing shards → nothing to extend with.
	if _, err := base.Extend(plan, nil); err == nil {
		t.Fatal("Extend accepted missing shards")
	}
	// Wrong seed → mismatch. (A Bank carries a sync.Once, so the fixture is
	// mutated in place, last, rather than copied.)
	base.Seed = 99
	if _, err := base.Extend(plan, []*BankShard{shard}); err == nil {
		t.Fatal("Extend accepted a plan with a different seed")
	}
}

// TestExtendBankV4CrashMidGrow pins the crash-consistency contract: a grow
// interrupted before its commit segment rolls back to the pre-grow bank on
// the next open, and retrying the grow converges to byte-identical file
// content.
func TestExtendBankV4CrashMidGrow(t *testing.T) {
	base, cold, plan, shard := growFixture(t)
	dir := t.TempDir()

	write := func(name string) string {
		p := filepath.Join(dir, name)
		if err := SaveBankV4(base, p); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Control: an uninterrupted grow, the bytes every retry must converge to.
	control := write("control.bank")
	if _, err := ExtendBankV4(control, plan, []*BankShard{shard}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(control)
	if err != nil {
		t.Fatal(err)
	}
	preGrow, err := os.ReadFile(write("pre.bank"))
	if err != nil {
		t.Fatal(err)
	}

	// Crash after the arena segments, before the commit: the debris is
	// invisible to readers and a retry converges.
	p := write("arena-crash.bank")
	extendAbortStage = "arena"
	if _, err := ExtendBankV4(p, plan, []*BankShard{shard}); err == nil {
		t.Fatal("aborted grow reported success")
	}
	extendAbortStage = ""
	got, err := LoadBank(p)
	if err != nil {
		t.Fatalf("reopen after arena crash: %v", err)
	}
	if hashBankContent(got) != hashBankContent(base) {
		t.Fatal("arena crash leaked partial growth to readers")
	}
	if _, err := ExtendBankV4(p, plan, []*BankShard{shard}); err != nil {
		t.Fatalf("retried grow: %v", err)
	}
	if after, _ := os.ReadFile(p); !bytes.Equal(after, want) {
		t.Fatal("retried grow did not converge to the control bytes")
	}

	// Crash with the commit fully written but not yet fsynced: the file
	// content already equals the committed grow, so readers see the grown
	// bank (fsync only narrows the window where the OS could lose it).
	p = write("commit-crash.bank")
	extendAbortStage = "commit"
	if _, err := ExtendBankV4(p, plan, []*BankShard{shard}); err == nil {
		t.Fatal("aborted grow reported success")
	}
	extendAbortStage = ""
	if got, err := LoadBank(p); err != nil || hashBankContent(got) != hashBankContent(cold) {
		t.Fatalf("commit-written crash: err=%v", err)
	}

	// Torn writes at arbitrary points inside the appended region (the OS
	// persisted a prefix): the bank rolls back to pre-grow, and a retried
	// grow converges to the control bytes. The last cut lands inside the
	// union commit's payload — a cut in the trailing alignment padding
	// would leave the commit intact, which is not a torn write.
	sf, err := bankseg.Parse(want)
	if err != nil {
		t.Fatal(err)
	}
	lastSeg := sf.Segments()[len(sf.Segments())-1]
	for _, cut := range []int64{
		int64(len(preGrow)) + 1,
		int64(len(preGrow)) + bankseg.SegmentHeaderLen + 16,
		lastSeg.Offset + bankseg.SegmentHeaderLen + int64(len(lastSeg.Payload)) - 1,
	} {
		p := filepath.Join(dir, "torn.bank")
		if err := os.WriteFile(p, want[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadBank(p)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if hashBankContent(got) != hashBankContent(base) {
			t.Fatalf("cut %d: torn grow leaked partial state", cut)
		}
		if _, err := ExtendBankV4(p, plan, []*BankShard{shard}); err != nil {
			t.Fatalf("cut %d: retried grow: %v", cut, err)
		}
		if after, _ := os.ReadFile(p); !bytes.Equal(after, want) {
			t.Fatalf("cut %d: retry did not converge", cut)
		}
	}
}

// TestLoadBankCorruptionIsLocated pins the error taxonomy: a damaged v4
// file fails with a coded CorruptError naming the segment and offset, never
// with a stale-format classification.
func TestLoadBankCorruptionIsLocated(t *testing.T) {
	b, _ := tinyBank(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "v4.bank")
	if err := SaveBankV4(b, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, img []byte) {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, img, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadBank(p)
		if err == nil {
			t.Fatalf("%s: load succeeded on a damaged file", name)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: err = %v, want *CorruptError", name, err)
		}
		if ce.Section != "segment" {
			t.Fatalf("%s: section = %q", name, ce.Section)
		}
		if IsStaleBankFormat(err) {
			t.Fatalf("%s: corruption misclassified as stale format", name)
		}
	}

	// Truncated mid-arena: no commit survives.
	check("trunc.bank", raw[:bankseg.FileHeaderLen+bankseg.SegmentHeaderLen+64])
	// Arena payload bit flip: header chain is fine, payload CRC is not.
	flip := append([]byte(nil), raw...)
	flip[bankseg.FileHeaderLen+bankseg.SegmentHeaderLen+8] ^= 1
	check("flip.bank", flip)
	// Truncated commit segment (cut inside its payload, not the padding).
	sf, err := bankseg.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	commit := sf.Segments()[len(sf.Segments())-1]
	check("shortcommit.bank", raw[:commit.Offset+bankseg.SegmentHeaderLen+int64(len(commit.Payload))-1])
}

// FuzzBankV5 asserts the one bank decoder — it faces disk and the wire —
// never panics, only ever returns validated banks, and fails in exactly two
// ways: a stale-format classification or a located *CorruptError. Seeds
// cover the corpus the crash and corruption tests exercise (a valid file, a
// torn segment, a payload CRC flip, a duplicated segment); testdata adds the
// retired generations (a whole v4 file with its float64 arena, v3 frames
// whole, truncated and bit-flipped, a gzip magic), which must classify as
// stale without being decoded.
func FuzzBankV5(f *testing.F) {
	opts := tinyBuildOptions()
	opts.NumConfigs, opts.MaxRounds = 2, 3
	pop := data.MustGenerate(tinySpec(), rng.New(1))
	b, err := BuildBank(pop, opts, 3)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "seed.bank")
	if err := SaveBankV4(b, path); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])                                                    // torn segment
	f.Add(raw[:bankseg.FileHeaderLen])                                         // header only
	flip := append([]byte(nil), raw...)                                        //
	flip[bankseg.FileHeaderLen+bankseg.SegmentHeaderLen+4] ^= 0x10             //
	f.Add(flip)                                                                // payload CRC flip
	f.Add(append(append([]byte(nil), raw...), raw[bankseg.FileHeaderLen:]...)) // duplicate segments
	f.Add([]byte{})
	// A grown file: two arena segments, two commits — the multi-block path.
	base, _, plan, shard := growFixture(f)
	grownPath := filepath.Join(f.TempDir(), "grown.bank")
	if err := SaveBankV4(base, grownPath); err != nil {
		f.Fatal(err)
	}
	if _, err := ExtendBankV4(grownPath, plan, []*BankShard{shard}); err != nil {
		f.Fatal(err)
	}
	grown, err := os.ReadFile(grownPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(grown)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBank(data)
		if err != nil {
			var ce *CorruptError
			if !IsStaleBankFormat(err) && !errors.As(err, &ce) {
				t.Fatalf("error is neither stale-format nor *CorruptError: %v", err)
			}
			if retired := bytes.HasPrefix(data, []byte("NEBANK\x04\x00")) || bytes.HasPrefix(data, []byte("NEBANK\x03\x00")) ||
				bytes.HasPrefix(data, []byte{0x1f, 0x8b}); retired && !IsStaleBankFormat(err) {
				t.Fatalf("retired-generation bytes not classified stale: %v", err)
			}
			return
		}
		if b == nil {
			t.Fatal("nil bank without error")
		}
		if verr := b.Validate(); verr != nil {
			t.Fatalf("decoded bank fails validation: %v", verr)
		}

		// What the decoder accepts round-trips: re-saved and decoded again
		// it reads the same rows and fingerprints the same, however its
		// count blocks were split.
		fp := BankFingerprint(b)
		dir := t.TempDir()
		resaved := filepath.Join(dir, "resaved.bank")
		if err := SaveBankV4(b, resaved); err != nil {
			t.Fatalf("re-save: %v", err)
		}
		again, err := LoadBank(resaved)
		if err != nil {
			t.Fatalf("decode of the re-saved bank: %v", err)
		}
		if d := countDiff(&again.Errs, &b.Errs); d != "" {
			t.Fatalf("re-saved bank reads differently: %s", d)
		}
		if BankFingerprint(again) != fp {
			t.Fatal("re-saved bank fingerprints differently")
		}
		// The same bytes mapped serve the same bank whenever the mapped open
		// accepts them — unless an arena payload fails its CRC: the mapped
		// open does not read payloads, so it may then serve a later commit
		// than the decoder, which stops at the first bad payload.
		in := filepath.Join(dir, "in.bank")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, closer, err := OpenBankMapped(in)
		if err != nil {
			return
		}
		defer closer.Close()
		if BankFingerprint(mapped) != fp && payloadsIntact(data) {
			t.Fatal("mapped open serves a different bank than DecodeBank")
		}
	})
}

// payloadsIntact reports whether every segment payload of a bank image
// passes its CRC.
func payloadsIntact(data []byte) bool {
	sf, err := bankseg.Parse(data)
	if err != nil {
		return false
	}
	for i := range sf.Segments() {
		if sf.Segments()[i].VerifyPayload() != nil {
			return false
		}
	}
	return true
}

// TestOpenBankMappedWarm covers the -mmap-warm open path: the warm open
// must serve identical content to the plain mapped open, bump the
// bank_mapped_warm_total counter, and pre-touch only real mappings
// (bankseg.File.Warm reports 0 for an unmapped file).
func TestOpenBankMappedWarm(t *testing.T) {
	b, _ := tinyBank(t)
	path := filepath.Join(t.TempDir(), "warm.bank")
	if err := SaveBankV4(b, path); err != nil {
		t.Fatal(err)
	}

	before := metricsInstruments().MappedWarmTotal.Value()
	warm, closer, err := OpenBankMappedWarm(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if hashBankContent(warm) != hashBankContent(b) {
		t.Fatal("warm-mapped bank differs from the original")
	}
	if got := metricsInstruments().MappedWarmTotal.Value(); got != before+1 {
		t.Fatalf("bank_mapped_warm_total = %d after warm open, want %d", got, before+1)
	}

	// A plain mapped open must not pre-touch (counter unchanged).
	plain, closer2, err := OpenBankMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer2.Close()
	if hashBankContent(plain) != hashBankContent(b) {
		t.Fatal("plain mapped bank differs from the original")
	}
	if got := metricsInstruments().MappedWarmTotal.Value(); got != before+1 {
		t.Fatalf("bank_mapped_warm_total = %d after plain open, want %d", got, before+1)
	}

	// Warm on an unmapped (read-into-heap) segment file is a no-op.
	f, err := bankseg.OpenHeap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n := f.Warm(); n != 0 {
		t.Fatalf("Warm on unmapped file pre-touched %d bytes, want 0", n)
	}
}

// TestBankStoreMappedWarm verifies the store-level knob: with
// SetMappedWarm(true) a mapped cache hit goes through the warm open.
func TestBankStoreMappedWarm(t *testing.T) {
	b, _ := tinyBank(t)
	dir := t.TempDir()
	store, err := NewBankStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetMapped(true)
	store.SetMappedWarm(true)
	key := "warmtest"
	if err := store.Put(key, b); err != nil {
		t.Fatal(err)
	}
	before := metricsInstruments().MappedWarmTotal.Value()
	got, err := store.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if got == nil {
		t.Fatalf("Get(%q) missed a bank just Put", key)
	}
	if hashBankContent(got) != hashBankContent(b) {
		t.Fatal("warm store hit differs from the stored bank")
	}
	if after := metricsInstruments().MappedWarmTotal.Value(); after != before+1 {
		t.Fatalf("bank_mapped_warm_total = %d after warm store hit, want %d", after, before+1)
	}
	store.Close()
}
