package core

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"noisyeval/internal/core/bankseg"
)

// v3FrameHeader is the fixed 48-byte header a bankfmt/v3 file opened with:
// magic, version 3, then flags, lengths and CRCs nothing reads any more.
func v3FrameHeader() []byte {
	return append([]byte("NEBANK\x03\x00\x01\x00\x00\x00"), make([]byte, 36)...)
}

// gobGzipMember renders what the original SaveBank wrote: a gob value inside
// one gzip member.
func gobGzipMember(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(struct{ SpecName string }{"cifar10"}); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v4Image returns a whole bankfmt/v4 file (float64 arena) as the previous
// generation's SaveBankV4 wrote it: the fuzz corpus seed v4-valid-bank.
func v4Image(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzBankV5", "v4-valid-bank"))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok {
		t.Fatalf("v4-valid-bank is not a one-value corpus entry")
	}
	img, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil || !strings.HasPrefix(img, "NEBANK\x04\x00") {
		t.Fatalf("v4-valid-bank does not hold a v4 image (err %v)", err)
	}
	return []byte(img)
}

// TestStaleGenerationsSelfHeal plants files of every retired encoding under
// a live key of a (mapped) store: each is evicted, counted as a stale format
// (not as corruption), rebuilt, and re-read as bankfmt/v5 — and reading the
// same bytes as a file names the generation and the fix.
func TestStaleGenerationsSelfHeal(t *testing.T) {
	b := storeBank(t)
	key := BankKey(tinySpec(), tinyBuildOptions(), 7)
	stale := map[string][]byte{
		"bankfmt/v4": v4Image(t),
		"bankfmt/v3": v3FrameHeader(),
		"gob+gzip":   gobGzipMember(t),
	}
	for generation, planted := range stale {
		t.Run(generation+"/mapped", func(t *testing.T) {
			store, err := NewBankStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			var logBuf bytes.Buffer
			store.Log = slog.New(slog.NewTextHandler(&logBuf, nil)).With("component", "bankstore")

			if err := os.WriteFile(store.Path(key), planted, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, err := store.Get(key); err != nil || got != nil {
				t.Fatalf("stale-format Get = %v, %v; want clean miss", got, err)
			}
			if _, err := os.Stat(store.Path(key)); !os.IsNotExist(err) {
				t.Error("stale-format entry not evicted")
			}
			if st := store.Stats(); st.StaleFormat != 1 || st.Evicted != 1 || st.CorruptSegment != 0 {
				t.Errorf("stats = %+v, want StaleFormat=1 Evicted=1 CorruptSegment=0", st)
			}
			if line := logBuf.String(); strings.Count(line, "event=bank_evict") != 1 ||
				!strings.Contains(line, "reason=stale_format") {
				t.Errorf("stale eviction not logged: %q", line)
			}

			builds := 0
			got, err := store.GetOrBuild(key, func() (*Bank, error) {
				builds++
				return b, nil
			})
			if err != nil || got == nil || builds != 1 {
				t.Fatalf("rebuild after stale format: bank=%v err=%v builds=%d", got != nil, err, builds)
			}
			raw, err := os.ReadFile(store.Path(key))
			if err != nil {
				t.Fatal(err)
			}
			if !bankseg.Sniff(raw) {
				t.Error("rebuilt entry is not bankfmt/v5")
			}
			again, err := store.Get(key)
			if err != nil || again == nil || hashBankContent(again) != hashBankContent(b) {
				t.Fatalf("re-read of the rebuilt entry: bank=%v err=%v", again != nil, err)
			}
			if st := store.Stats(); st.Hits != 1 || st.StaleFormat != 1 {
				t.Errorf("stats after re-read = %+v, want Hits=1 StaleFormat=1", st)
			}

			// A genuinely corrupt entry still evicts without the stale stat moving.
			store.Close() // drop the mapping before clobbering the file under it
			if err := os.WriteFile(store.Path(key), []byte("garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, err := store.Get(key); err != nil || got != nil {
				t.Fatalf("corrupt Get = %v, %v; want clean miss", got, err)
			}
			if st := store.Stats(); st.StaleFormat != 1 || st.Evicted != 2 || st.CorruptSegment != 1 {
				t.Errorf("stats after corruption = %+v, want StaleFormat=1 Evicted=2 CorruptSegment=1", st)
			}
		})

		// The same bytes as a file: every reader names the generation and the
		// fix instead of decoding or calling it corrupt.
		path := filepath.Join(t.TempDir(), "stale.bank")
		if err := os.WriteFile(path, planted, 0o644); err != nil {
			t.Fatal(err)
		}
		_, loadErr := LoadBank(path)
		_, _, openErr := OpenBankMapped(path)
		info, infoErr := InspectBank(path)
		for reader, err := range map[string]error{"LoadBank": loadErr, "OpenBankMapped": openErr, "InspectBank": infoErr} {
			if !IsStaleBankFormat(err) || !errors.Is(err, ErrLegacyBankFormat) {
				t.Errorf("%s: %s = %v, want a stale-format error", generation, reader, err)
				continue
			}
			if !strings.Contains(err.Error(), generation) || !strings.Contains(err.Error(), "cmd/bank") {
				t.Errorf("%s: %s error %q does not name the generation and cmd/bank", generation, reader, err)
			}
		}
		if info == nil || info.Version == bankseg.Version || info.FileBytes != int64(len(planted)) {
			t.Errorf("%s: InspectBank report = %+v", generation, info)
		}
	}
}

// TestBankFormatGenerations pins the rest of the taxonomy: a future
// generation is stale (not corrupt), and bytes that merely claim to be v5 are
// located corruption (not stale).
func TestBankFormatGenerations(t *testing.T) {
	future := append([]byte("NEBANK\x06\x00"), make([]byte, 120)...)
	if _, err := DecodeBank(future); !errors.Is(err, ErrUnknownBankVersion) || !IsStaleBankFormat(err) {
		t.Errorf("future version: err = %v, want ErrUnknownBankVersion", err)
	}
	var ce *CorruptError
	claimsV5 := append([]byte("NEBANK\x05\x00"), make([]byte, 120)...)
	if _, err := DecodeBank(claimsV5); !errors.As(err, &ce) || IsStaleBankFormat(err) {
		t.Errorf("zeroed v5 header: err = %v, want *CorruptError", err)
	}
	for name, data := range map[string][]byte{"empty": nil, "short": []byte("NEB"), "foreign": bytes.Repeat([]byte("x"), 200)} {
		if _, err := DecodeBank(data); !errors.As(err, &ce) || IsStaleBankFormat(err) {
			t.Errorf("%s: err = %v, want *CorruptError", name, err)
		}
	}
	if IsStaleBankFormat(errors.New("core: payload CRC mismatch")) {
		t.Error("corruption misclassified as stale format")
	}
}

// TestShardImageRoundTripAndRobustness covers the shard image dist workers
// upload: a round trip is exact and deterministic, and every way the two
// segments can disagree with each other or their checksums is refused.
func TestShardImageRoundTripAndRobustness(t *testing.T) {
	pop, opts, seed := shardTestInputs(t)
	plan, err := NewBuildPlan(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := plan.TrainRange(1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	sh.Diverged[1] = true
	img, err := MarshalShardV4(sh)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := MarshalShardV4(sh); !bytes.Equal(img, again) {
		t.Error("shard image is not deterministic")
	}
	back, err := UnmarshalShardV4(img)
	if err != nil {
		t.Fatal(err)
	}
	if back.Lo != sh.Lo || back.Hi != sh.Hi {
		t.Fatalf("range drifted: [%d, %d)", back.Lo, back.Hi)
	}
	if err := back.Validate(plan); err != nil {
		t.Fatal(err)
	}
	if d := countDiff(&back.Errs, &sh.Errs); d != "" {
		t.Errorf("shard counts changed in round trip: %s", d)
	}
	if !back.Diverged[1] || back.Diverged[0] || back.Diverged[2] {
		t.Errorf("divergence flags changed in round trip: %v", back.Diverged)
	}

	other, err := plan.TrainRange(0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	otherImg, err := MarshalShardV4(other)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := bankseg.Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	flagsStart := sf.Segments()[1].Offset
	flip := func(at int64) []byte {
		c := append([]byte(nil), img...)
		c[at] ^= 0x01
		return c
	}
	bad := map[string][]byte{
		"truncated":               img[:len(img)-70],
		"arena only":              img[:flagsStart],
		"arena payload CRC flip":  flip(bankseg.FileHeaderLen + bankseg.SegmentHeaderLen + 3),
		"flags payload CRC flip":  flip(flagsStart + bankseg.SegmentHeaderLen + 13),
		"other shard's flags":     append(append([]byte(nil), img[:flagsStart]...), otherImg[len(otherImg)-(len(img)-int(flagsStart)):]...),
		"trailing third segment":  bankseg.AppendSegment(append([]byte(nil), img...), segKindArena, 3, arenaTag(1, 4), func(p []byte) []byte { return p }),
		"bank file, not a shard":  bankImage(t, plan),
		"v3 NESHRD frame":         append([]byte("NESHRD\x03\x00"), make([]byte, 120)...),
		"not a container at all":  []byte("garbage"),
		"empty":                   nil,
		"header only":             bankseg.NewImage(),
		"flags then arena (swap)": swapSegments(img, flagsStart),
	}
	for name, data := range bad {
		var ce *CorruptError
		if _, err := UnmarshalShardV4(data); !errors.As(err, &ce) {
			t.Errorf("%s: err = %v, want *CorruptError", name, err)
		}
	}
}

// bankImage renders a one-shard bank file (arena + commit), which a shard
// decoder must refuse: it has no flags segment.
func bankImage(t *testing.T, plan *BuildPlan) []byte {
	t.Helper()
	full, err := plan.TrainRange(0, plan.NumConfigs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AssembleBank(plan, []*BankShard{full})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bank.bank")
	if err := SaveBankV4(b, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// swapSegments reorders a two-segment image so the second segment's bytes
// come first (their sequence numbers then run backwards).
func swapSegments(img []byte, secondStart int64) []byte {
	out := append([]byte(nil), img[:bankseg.FileHeaderLen]...)
	out = append(out, img[secondStart:]...)
	return append(out, img[bankseg.FileHeaderLen:secondStart]...)
}
