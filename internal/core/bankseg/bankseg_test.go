package bankseg

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

const kindCommit = 9 // arbitrary commit kind for these tests

// writeTestFile renders a container with the given payloads and publishes it
// at path; every odd segment index gets kindCommit.
func writeTestFile(t *testing.T, path string, payloads ...[]byte) {
	t.Helper()
	img := NewImage()
	for i, p := range payloads {
		kind := uint32(1)
		if i%2 == 1 {
			kind = kindCommit
		}
		var tag [16]byte
		tag[0] = byte(i)
		img = AppendSegment(img, kind, uint64(i+1), tag, func(dst []byte) []byte { return append(dst, p...) })
	}
	if err := WriteFile(path, img); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFileOpenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "seg.bank") // WriteFile makes the directory
	payloads := [][]byte{
		bytes.Repeat([]byte{0xAB}, 7),   // forces padding
		bytes.Repeat([]byte{0xCD}, 128), // exactly aligned
		{},                              // empty payload is legal
		bytes.Repeat([]byte{0x01}, 65),
	}
	writeTestFile(t, path, payloads...)

	for _, open := range []struct {
		name string
		fn   func(string) (*File, error)
	}{{"mapped", Open}, {"parsed", func(p string) (*File, error) {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		return Parse(raw)
	}}} {
		f, err := open.fn(path)
		if err != nil {
			t.Fatalf("%s: %v", open.name, err)
		}
		if f.Torn() != nil {
			t.Fatalf("%s: unexpected torn tail: %v", open.name, f.Torn())
		}
		segs := f.Segments()
		if len(segs) != len(payloads) {
			t.Fatalf("%s: %d segments, want %d", open.name, len(segs), len(payloads))
		}
		for i, s := range segs {
			if !bytes.Equal(s.Payload, payloads[i]) {
				t.Errorf("%s: segment %d payload mismatch", open.name, i)
			}
			if s.Offset%Align != 0 {
				t.Errorf("%s: segment %d header at unaligned offset %d", open.name, i, s.Offset)
			}
			if (s.Offset+SegmentHeaderLen)%Align != 0 {
				t.Errorf("%s: segment %d payload unaligned", open.name, i)
			}
			if s.Seq != uint64(i+1) {
				t.Errorf("%s: segment %d seq = %d", open.name, i, s.Seq)
			}
			if s.Tag[0] != byte(i) {
				t.Errorf("%s: segment %d tag = %d", open.name, i, s.Tag[0])
			}
			if err := s.VerifyPayload(); err != nil {
				t.Errorf("%s: segment %d payload CRC: %v", open.name, i, err)
			}
		}
		f.Close()
	}
}

func TestSniffAndHeaderCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.bank")
	writeTestFile(t, path, []byte("x"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !Sniff(raw) {
		t.Fatal("fresh file does not sniff as the current version")
	}

	// Wrong magic → ErrNotSegmented (a v3 bank, not corruption).
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := Parse(bad); !errors.Is(err, ErrNotSegmented) {
		t.Errorf("bad magic: err = %v, want ErrNotSegmented", err)
	}

	// Damaged reserved header region → CRC mismatch, located at offset 0.
	bad = append([]byte(nil), raw...)
	bad[30] ^= 0xFF
	var ce *CorruptError
	if _, err := Parse(bad); !errors.As(err, &ce) || ce.Offset != 0 {
		t.Errorf("header corruption: err = %v", err)
	}
}

func TestTornTailStopsWalk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.bank")
	writeTestFile(t, path, bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 100))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	seg1 := f.Segments()[1]

	// Truncation anywhere inside segment 1 leaves segment 0 intact and
	// reports the walk as torn at index 1.
	for _, cut := range []int64{seg1.Offset + 1, seg1.Offset + SegmentHeaderLen, seg1.Offset + SegmentHeaderLen + 50} {
		g, err := Parse(raw[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(g.Segments()) != 1 {
			t.Fatalf("cut %d: %d segments survive, want 1", cut, len(g.Segments()))
		}
		torn := g.Torn()
		if torn == nil || torn.Segment != 1 {
			t.Fatalf("cut %d: torn = %v", cut, torn)
		}
	}

	// A flipped bit in segment 1's header stops the walk there too.
	bad := append([]byte(nil), raw...)
	bad[seg1.Offset+10] ^= 1
	g, err := Parse(bad)
	if err != nil || len(g.Segments()) != 1 || g.Torn() == nil {
		t.Fatalf("header flip: segs=%d torn=%v err=%v", len(g.Segments()), g.Torn(), err)
	}

	// Nonzero padding after a payload is misframing.
	bad = append([]byte(nil), raw...)
	pend := f.Segments()[0].Offset + SegmentHeaderLen + 100
	bad[pend] = 0xFF
	g, err = Parse(bad)
	if err != nil || len(g.Segments()) != 0 || g.Torn() == nil {
		t.Fatalf("nonzero padding: segs=%d torn=%v err=%v", len(g.Segments()), g.Torn(), err)
	}
}

func TestDuplicateSequenceRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.bank")
	writeTestFile(t, path, []byte("a"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Replay segment 0's bytes after itself: same seq twice.
	dup := append(append([]byte(nil), raw...), raw[FileHeaderLen:]...)
	f, err := Parse(dup)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Segments()) != 1 || f.Torn() == nil {
		t.Fatalf("duplicate seq: segs=%d torn=%v", len(f.Segments()), f.Torn())
	}
}

func TestFailedWriteFileLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	// A rename onto a directory fails after the temp file is written.
	path := filepath.Join(dir, "seg.bank")
	old := filepath.Join(path, "old")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	img := AppendSegment(NewImage(1), 1, 1, [16]byte{}, func(dst []byte) []byte { return append(dst, 'x') })
	if err := WriteFile(path, img); err == nil {
		t.Fatal("WriteFile onto a directory succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "seg.bank" {
		t.Fatalf("a failed write left %v behind", ents)
	}
	if raw, err := os.ReadFile(old); err != nil || string(raw) != "old" {
		t.Fatalf("what was at the path changed: %q, %v", raw, err)
	}
}

func TestUint32sRoundTrip(t *testing.T) {
	want := []uint32{0, 1, 65535, 65536, 194167, 1<<32 - 1}
	raw := AppendUint32s(nil, want)
	if len(raw) != len(want)*4 {
		t.Fatalf("encoded %d bytes", len(raw))
	}
	got := CopyUint32s(raw)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CopyUint32s[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if zc, ok := Uint32s(raw); ok {
		for i := range want {
			if zc[i] != want[i] {
				t.Fatalf("Uint32s[%d] = %v, want %v", i, zc[i], want[i])
			}
		}
	}
	// Payloads whose length is not a multiple of 4 can never alias as []uint32.
	if _, ok := Uint32s(raw[:5]); ok {
		t.Fatal("Uint32s accepted a non-multiple-of-4 payload")
	}
}
