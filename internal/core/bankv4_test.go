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
// with freshly trained configs must reproduce a cold build over the union
// pool with the same seed — the same content, and saved, the same file
// bytes. The grown bank is built over a mapped parent, as a store serves it.
func TestGrownBankMatchesColdBuild(t *testing.T) {
	base, cold, plan, shard := growFixture(t)
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.bank")
	if err := SaveBankV4(base, basePath); err != nil {
		t.Fatal(err)
	}
	parent, closer, err := OpenBankMapped(basePath)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	grown, err := parent.Extend(plan, []*BankShard{shard})
	if err != nil {
		t.Fatal(err)
	}
	if hashBankContent(grown) != hashBankContent(cold) {
		t.Fatal("grown bank content differs from cold build over the union pool")
	}
	if len(parent.Configs) != 4 {
		t.Fatal("Extend mutated its receiver")
	}
	grownPath, coldPath := filepath.Join(dir, "grown.bank"), filepath.Join(dir, "cold.bank")
	if err := SaveBankV4(grown, grownPath); err != nil {
		t.Fatal(err)
	}
	if err := SaveBankV4(cold, coldPath); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(grownPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(coldPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("saved grown bank (%d B) differs from the saved cold build (%d B)", len(got), len(want))
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
// (an error rate above 1) is refused wherever counts arrive — a shard
// (BankShard.Validate, so AssembleBank and a dist upload), a decode
// (DecodeBank, so LoadBank and peer transfers) and a mapped open
// (OpenBankMapped, so the store), the last two as a *CorruptError.
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
	if _, _, err := OpenBankMapped(path); !errors.As(err, &ce) || IsStaleBankFormat(err) {
		t.Fatalf("OpenBankMapped of a count above its example count: err = %v, want *CorruptError", err)
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

// legacyGrownFile is a bank grown in place by an earlier build, which
// appended an arena and a second commit to growFixture's saved base bank:
// arena [0,4), commit, arena [4,6), commit naming both. This build writes
// no such file, but it is valid bankfmt/v5 and must read as it always did.
const legacyGrownFile = "testdata/grown-in-place.bank"

// readAllWays reads the bank file at path through every reader of stored
// bank bytes — LoadBank, OpenBankMapped, a BankStore's Get and InspectBank —
// and fails unless each names the bank whose fingerprint is want, of
// configs configs: InspectBank's dims are that bank's, and the segments it
// marks live are one commit and intact arenas covering exactly its configs.
func readAllWays(t *testing.T, path, want string, configs int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBank(path)
	if err != nil {
		t.Fatalf("LoadBank: %v", err)
	}
	if got := BankFingerprint(loaded); got != want {
		t.Errorf("LoadBank serves %s (%d configs), want %s", got, len(loaded.Configs), want)
	}
	mapped, closer, err := OpenBankMapped(path)
	if err != nil {
		t.Fatalf("OpenBankMapped: %v", err)
	}
	defer closer.Close()
	if got := BankFingerprint(mapped); got != want {
		t.Errorf("OpenBankMapped serves %s (%d configs), want %s", got, len(mapped.Configs), want)
	}
	store, err := NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := os.WriteFile(store.Path("legacy"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	stored, err := store.Get("legacy")
	if err != nil || stored == nil {
		t.Fatalf("BankStore.Get = %v, %v; want a hit", stored != nil, err)
	}
	if got := BankFingerprint(stored); got != want {
		t.Errorf("BankStore.Get serves %s (%d configs), want %s", got, len(stored.Configs), want)
	}
	info, err := InspectBank(path)
	if err != nil {
		t.Fatalf("InspectBank: %v", err)
	}
	if wantDims := [4]int{len(loaded.Partitions), configs, len(loaded.Rounds), len(loaded.ExampleCounts[0])}; info.Dims != wantDims {
		t.Errorf("InspectBank dims %v, want %v", info.Dims, wantDims)
	}
	commits, covered := 0, 0
	for _, si := range info.Segments {
		if !si.Live {
			continue
		}
		if !si.CRCOK {
			t.Errorf("InspectBank marks segment %d (%s) live with a bad CRC", si.Index, si.Kind)
		}
		if si.Kind == "commit" {
			commits++
		} else {
			covered += si.Hi - si.Lo
		}
	}
	if commits != 1 || covered != configs {
		t.Errorf("InspectBank marks %d commits and arenas of %d configs live, want 1 and %d", commits, covered, configs)
	}
}

// TestLegacyGrownFileReads: a file grown in place reads, through every
// reader, as the cold build over the union pool; cut anywhere inside the
// appended region, or with one bit flipped in its second arena, it reads
// as the pre-grow bank (its first commit) — cmd/bank -info included, which
// once reported the flipped file as the union bank the loader refuses.
func TestLegacyGrownFileReads(t *testing.T) {
	base, cold, _, _ := growFixture(t)
	grown, err := os.ReadFile(legacyGrownFile)
	if err != nil {
		t.Fatal(err)
	}
	readAllWays(t, legacyGrownFile, BankFingerprint(cold), len(cold.Configs))

	sf, err := bankseg.Parse(grown)
	if err != nil {
		t.Fatal(err)
	}
	segs := sf.Segments()
	if len(segs) != 4 || segs[1].Kind != segKindCommit || segs[2].Kind != segKindArena || segs[3].Kind != segKindCommit {
		t.Fatalf("fixture is not arena, commit, arena, commit: %d segments", len(segs))
	}
	preGrow := segs[1].End // the base file ends after its commit
	// The writer still writes the bytes the earlier build grew from.
	basePath := filepath.Join(t.TempDir(), "base.bank")
	if err := SaveBankV4(base, basePath); err != nil {
		t.Fatal(err)
	}
	if saved, err := os.ReadFile(basePath); err != nil || !bytes.Equal(saved, grown[:preGrow]) {
		t.Fatalf("SaveBankV4 of the base bank is not the fixture's first %d bytes (err %v)", preGrow, err)
	}
	flip := append([]byte(nil), grown...)
	flip[segs[2].Offset+bankseg.SegmentHeaderLen+8] ^= 1
	variants := map[string][]byte{
		// The cuts a crash mid-grow left: inside the appended arena's
		// header, inside its payload, and inside the union commit's payload
		// (a cut in the trailing padding would leave that commit intact).
		"cut-arena-header":  grown[:preGrow+1],
		"cut-arena-payload": grown[:preGrow+bankseg.SegmentHeaderLen+16],
		"cut-union-commit":  grown[:segs[3].Offset+bankseg.SegmentHeaderLen+int64(len(segs[3].Payload))-1],
		"flip-second-arena": flip,
	}
	for name, img := range variants {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name+".bank")
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			readAllWays(t, path, BankFingerprint(base), len(base.Configs))
		})
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
// ways: a stale-format classification or a located *CorruptError — and that
// OpenBankMapped, the store's read path, accepts the same bytes written to
// a file exactly when it does, serving the same bank. Seeds cover the
// corpus the crash and corruption tests exercise (a valid file, a torn
// segment, a payload CRC flip, a duplicated segment, and the committed
// grown-in-place file whole and with a flipped bit in its second arena);
// testdata adds the
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
	// A file grown in place: two arena segments, two commits — the
	// multi-block path.
	grown, err := os.ReadFile(legacyGrownFile)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(grown)
	// One bit flipped in the grown file's second arena: the decoder stops at
	// that payload and serves the first commit's bank.
	sf, err := bankseg.Parse(grown)
	if err != nil {
		f.Fatal(err)
	}
	grownFlip := append([]byte(nil), grown...)
	grownFlip[sf.Segments()[2].Offset+bankseg.SegmentHeaderLen+8] ^= 1
	f.Add(grownFlip)
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBank(data)
		// The same bytes as a file open mapped exactly when they decode, and
		// serve the same bank: both read paths check every payload.
		dir := t.TempDir()
		in := filepath.Join(dir, "in.bank")
		if werr := os.WriteFile(in, data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		mapped, closer, merr := OpenBankMapped(in)
		if (merr == nil) != (err == nil) {
			t.Fatalf("DecodeBank error %v, OpenBankMapped error %v", err, merr)
		}
		if err != nil {
			if IsStaleBankFormat(err) != IsStaleBankFormat(merr) {
				t.Fatalf("DecodeBank and OpenBankMapped classify differently: %v / %v", err, merr)
			}
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

		defer closer.Close()
		fp := BankFingerprint(b)
		if BankFingerprint(mapped) != fp {
			t.Fatal("mapped open serves a different bank than DecodeBank")
		}

		// What the decoder accepts round-trips: re-saved and decoded again
		// it reads the same rows and fingerprints the same, however its
		// count blocks were split.
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
	})
}

// TestBankStoreGetRejectsFlippedArena: one bit flipped in a stored bank's
// arena makes a plain store's Get a miss that evicts the entry and counts a
// located corruption — the mapped read path checks every payload CRC, as
// the decoder does.
func TestBankStoreGetRejectsFlippedArena(t *testing.T) {
	b, _ := tinyBank(t)
	store, err := NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const key = "flipped"
	if err := store.Put(key, b); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(store.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	sf, err := bankseg.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	arena := sf.Segments()[0]
	if arena.Kind != segKindArena {
		t.Fatalf("first segment kind %d, want the arena", arena.Kind)
	}
	raw[arena.Offset+bankseg.SegmentHeaderLen+int64(len(arena.Payload))/2] ^= 1
	if err := os.WriteFile(store.Path(key), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := store.Get(key); err != nil || got != nil {
		t.Fatalf("Get of a flipped arena = %v, %v; want a miss", got != nil, err)
	}
	if _, err := os.Stat(store.Path(key)); !os.IsNotExist(err) {
		t.Error("corrupt entry not removed")
	}
	if st := store.Stats(); st.CorruptSegment != 1 || st.Evicted != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v, want CorruptSegment=1 Evicted=1 Hits=0", st)
	}
}
