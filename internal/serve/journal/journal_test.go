package journal

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, dir string) (*Journal, []Record) {
	t.Helper()
	j, recs, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs := openT(t, dir)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []Record{
		{Kind: "submit", Data: []byte(`{"id":"run-000001"}`)},
		{Kind: "start", Data: []byte(`{"id":"run-000001"}`)},
		{Kind: "terminal", Data: []byte(`{"id":"run-000001","state":"done"}`)},
		{Kind: "submit", Data: []byte{}}, // empty payloads round-trip too
	}
	for _, r := range want {
		if err := j.Append(r.Kind, r.Data); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Stats(); st.Appends != 4 || st.Replayed != 0 {
		t.Errorf("stats = %+v", st)
	}
	j.Close()

	j2, got := openT(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if st := j2.Stats(); st.Replayed != 4 || st.TornTails != 0 {
		t.Errorf("reopen stats = %+v", st)
	}
}

func TestTornTailTruncates(t *testing.T) {
	// Three flavors of torn tail: a partial frame header, a frame whose
	// payload is cut short, and a frame whose CRC mismatches (bit rot or a
	// torn sector rewrite). Each must truncate back to the intact prefix and
	// count one torn tail — never fail the open.
	appendGarbage := []struct {
		name string
		tail func(valid []byte) []byte
	}{
		{"partial header", func(v []byte) []byte { return append(v, 0x03, 0x00) }},
		{"cut payload", func(v []byte) []byte {
			frame, _ := encodeFrame(Record{Kind: "submit", Data: []byte("payload")})
			return append(v, frame[:len(frame)-3]...)
		}},
		{"crc mismatch", func(v []byte) []byte {
			frame, _ := encodeFrame(Record{Kind: "submit", Data: []byte("payload")})
			frame[len(frame)-1] ^= 0xFF
			return append(v, frame...)
		}},
	}
	for _, tc := range appendGarbage {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := openT(t, dir)
			for i := 0; i < 3; i++ {
				if err := j.Append("submit", []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			j.Close()

			walPath := filepath.Join(dir, "wal")
			valid, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath, tc.tail(valid), 0o644); err != nil {
				t.Fatal(err)
			}

			j2, recs := openT(t, dir)
			if len(recs) != 3 {
				t.Fatalf("replayed %d records, want the 3 intact ones", len(recs))
			}
			if st := j2.Stats(); st.TornTails != 1 {
				t.Errorf("torn tails = %d, want 1", st.TornTails)
			}
			// The file was physically truncated: appending and reopening
			// yields 4 clean records and no further torn tail.
			if err := j2.Append("submit", []byte{9}); err != nil {
				t.Fatal(err)
			}
			j2.Close()
			j3, recs3 := openT(t, dir)
			if len(recs3) != 4 {
				t.Errorf("after truncate+append replayed %d, want 4", len(recs3))
			}
			if st := j3.Stats(); st.TornTails != 0 {
				t.Errorf("clean reopen counted %d torn tails", st.TornTails)
			}
		})
	}
}

// TestOpenSilentByDefault pins the logger of a journal opened with no
// Options.Log: Open installs a discard logger, so truncating a torn WAL tail
// and compacting — both of which log — neither panic nor write.
func TestOpenSilentByDefault(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	if err := j.Append("submit", []byte{1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	walPath := filepath.Join(dir, "wal")
	valid, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, append(valid, 0x03, 0x00), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs := openT(t, dir)
	if j2.opts.Log.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("a journal with no logger configured logs")
	}
	if st := j2.Stats(); len(recs) != 1 || st.TornTails != 1 {
		t.Fatalf("replayed %d records with %d torn tails, want 1 and 1", len(recs), st.TornTails)
	}
	if err := j2.Compact(recs); err != nil {
		t.Fatal(err)
	}
}

func TestForeignFileRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal"), []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("open of a foreign file succeeded; want bad-magic error")
	}
}

func TestCompactShrinksAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir)
	for i := 0; i < 100; i++ {
		if err := j.Append("submit", bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	before := j.Bytes()
	compacted := []Record{
		{Kind: "submit", Data: []byte("a")},
		{Kind: "terminal", Data: []byte("b")},
	}
	if err := j.Compact(compacted); err != nil {
		t.Fatal(err)
	}
	if after := j.Bytes(); after >= before {
		t.Errorf("compact did not shrink: %d -> %d bytes", before, after)
	}
	if st := j.Stats(); st.Compactions != 1 || st.LastCompact.IsZero() {
		t.Errorf("stats = %+v", st)
	}
	// Post-compaction appends land in the fresh WAL; replay = snapshot+WAL.
	if err := j.Append("start", []byte("c")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, recs := openT(t, dir)
	if len(recs) != 3 || recs[0].Kind != "submit" || recs[1].Kind != "terminal" || recs[2].Kind != "start" {
		t.Fatalf("replay after compact = %+v", recs)
	}
}

func TestBudgetBackpressure(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(Options{Dir: dir, MaxBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var appended int
	for i := 0; i < 100; i++ {
		if err := j.Append("submit", bytes.Repeat([]byte("x"), 32)); err != nil {
			if !errors.Is(err, ErrBudget) {
				t.Fatalf("append %d: %v", i, err)
			}
			break
		}
		appended++
	}
	if appended == 0 || appended == 100 {
		t.Fatalf("budget never engaged sensibly (appended %d)", appended)
	}
	// Compacting away the bulk restores headroom.
	if err := j.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("submit", []byte("y")); err != nil {
		t.Errorf("append after compact: %v", err)
	}
}

func TestSnapshotCrashBeforeWALTruncateDuplicates(t *testing.T) {
	// A crash between snapshot rename and WAL truncate leaves both files
	// populated. Replay must surface snapshot records first, then the stale
	// WAL records — consumers fold idempotently. Simulate by writing the
	// snapshot by hand next to a live WAL.
	dir := t.TempDir()
	j, _ := openT(t, dir)
	if err := j.Append("submit", []byte("wal-copy")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	var snap bytes.Buffer
	snap.Write(fileMagic)
	frame, _ := encodeFrame(Record{Kind: "submit", Data: []byte("snap-copy")})
	snap.Write(frame)
	if err := os.WriteFile(filepath.Join(dir, "snapshot"), snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, recs := openT(t, dir)
	if len(recs) != 2 || string(recs[0].Data) != "snap-copy" || string(recs[1].Data) != "wal-copy" {
		t.Fatalf("replay = %+v, want snapshot record then WAL record", recs)
	}
}
