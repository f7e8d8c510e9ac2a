// Package bankseg implements the segment layer of bankfmt/v5: an
// append-oriented on-disk container of CRC-framed, 64-byte-aligned segments
// behind a fixed file header. The layer is deliberately bank-agnostic — it
// knows headers, framing, checksums, mmap, append, and torn-tail recovery;
// the bank semantics (which segment kinds exist, what their payloads mean,
// which segment is a commit point) live in internal/core.
//
// Layout (all integers little-endian, CRC-32C/Castagnoli):
//
//	file header   64 B   "NEBANK" magic, version=5, flags, alignment, CRC
//	segment 0     64 B header + payload, zero-padded to a 64 B boundary
//	segment 1     ...
//
// Segment headers carry a strictly increasing sequence number, a kind, a
// 16-byte kind-specific tag, the payload length and CRC, and their own CRC.
// 64-byte alignment of every payload means a raw little-endian uint32
// payload can be reinterpreted in place as a []uint32 on little-endian
// hosts — the zero-copy mmap serving path.
//
// Durability discipline: fresh files are written to a temp name, fsynced,
// and renamed into place; growth appends in place and fsyncs before
// reporting success. A reader treats everything after the last segment the
// caller recognizes as a commit point as crash debris, and an appending
// writer physically truncates that debris before adding new segments — so a
// crash mid-grow rolls the file back to its last intact commit.
package bankseg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

const (
	// Align is the placement granularity of segment headers and payloads.
	// It is a cache-line (and sufficient word-alignment) boundary, and is
	// recorded in the file header so future readers can verify it.
	Align = 64
	// FileHeaderLen is the fixed size of the file header.
	FileHeaderLen = 64
	// SegmentHeaderLen is the fixed size of every segment header.
	SegmentHeaderLen = 64
	// Version is the bankfmt generation this layer reads and writes. The
	// magic matches bankfmt/v3 and v4 so old decoders fail with their own
	// coded "written by a future version" error instead of a garbage parse.
	// v5 changed only the arena element (uint32 wrong-counts where v4 stored
	// float64 rates); the framing is v4's.
	Version = 5

	// maxSegmentBytes caps a single segment's payload, bounding allocation
	// from hostile headers (mirrors core's arena cap).
	maxSegmentBytes = 4 << 30
)

var (
	fileMagic  = []byte("NEBANK")
	segMagic   = []byte("SEG1")
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// ErrNotSegmented reports that a file's first bytes are not a bankfmt/v5
// file header (it may be a perfectly valid bank of a retired generation).
var ErrNotSegmented = errors.New("bankseg: not a bankfmt/v5 segmented bank file")

// Sniff reports whether prefix starts with a file header of this layer's
// Version (magic + version only; no checksum verification).
func Sniff(prefix []byte) bool {
	return len(prefix) >= 8 &&
		string(prefix[:6]) == string(fileMagic) &&
		binary.LittleEndian.Uint16(prefix[6:8]) == Version
}

// CorruptError locates a structural failure inside a segmented file: which
// segment index the walk failed on and the file offset of the failing
// header or payload. Callers (BankStore, cmd/bank -info) use it to report
// and count corruption precisely instead of surfacing a bare CRC mismatch.
type CorruptError struct {
	Path    string // file path when known ("" for in-memory parses)
	Segment int    // 0-based index of the segment that failed
	Offset  int64  // file offset of the failing header or payload
	Reason  string // human-readable cause
}

func (e *CorruptError) Error() string {
	where := "segmented bank"
	if e.Path != "" {
		where = e.Path
	}
	return fmt.Sprintf("bankseg: %s: segment %d at offset %d: %s", where, e.Segment, e.Offset, e.Reason)
}

// Segment is one framed unit of a segmented file. Payload is a view into the
// file image (mapped or heap); callers must treat it as read-only.
type Segment struct {
	Kind       uint32
	Seq        uint64
	Tag        [16]byte
	Payload    []byte
	Offset     int64 // file offset of this segment's header
	End        int64 // offset one past the payload padding (next segment start)
	payloadCRC uint32
}

// VerifyPayload checks the payload against its recorded CRC. Open and Parse
// leave it to the caller: every bank read and repair path calls it per
// segment.
func (s *Segment) VerifyPayload() error {
	if got := crc32.Checksum(s.Payload, castagnoli); got != s.payloadCRC {
		return &CorruptError{
			Segment: -1, Offset: s.Offset,
			Reason: fmt.Sprintf("payload CRC mismatch (got %08x, want %08x)", got, s.payloadCRC),
		}
	}
	return nil
}

// alignUp rounds n up to the next Align boundary.
func alignUp(n int64) int64 { return (n + Align - 1) &^ (Align - 1) }

// --- file header ---

func encodeFileHeader() []byte {
	h := make([]byte, FileHeaderLen)
	copy(h[0:6], fileMagic)
	binary.LittleEndian.PutUint16(h[6:8], Version)
	binary.LittleEndian.PutUint32(h[8:12], 0) // flags: none defined
	binary.LittleEndian.PutUint32(h[12:16], Align)
	binary.LittleEndian.PutUint32(h[60:64], crc32.Checksum(h[:60], castagnoli))
	return h
}

func parseFileHeader(path string, data []byte) error {
	if len(data) < FileHeaderLen {
		return &CorruptError{Path: path, Segment: -1, Offset: 0, Reason: "file shorter than header"}
	}
	h := data[:FileHeaderLen]
	if !Sniff(h) {
		return ErrNotSegmented
	}
	if got, want := crc32.Checksum(h[:60], castagnoli), binary.LittleEndian.Uint32(h[60:64]); got != want {
		return &CorruptError{Path: path, Segment: -1, Offset: 0,
			Reason: fmt.Sprintf("file header CRC mismatch (got %08x, want %08x)", got, want)}
	}
	if flags := binary.LittleEndian.Uint32(h[8:12]); flags != 0 {
		return &CorruptError{Path: path, Segment: -1, Offset: 8,
			Reason: fmt.Sprintf("unknown header flags %#x", flags)}
	}
	if align := binary.LittleEndian.Uint32(h[12:16]); align != Align {
		return &CorruptError{Path: path, Segment: -1, Offset: 12,
			Reason: fmt.Sprintf("alignment %d, want %d", align, Align)}
	}
	return nil
}

// --- segment framing ---

func encodeSegmentHeader(kind uint32, seq uint64, tag [16]byte, payload []byte) []byte {
	h := make([]byte, SegmentHeaderLen)
	copy(h[0:4], segMagic)
	binary.LittleEndian.PutUint32(h[4:8], kind)
	binary.LittleEndian.PutUint64(h[8:16], seq)
	binary.LittleEndian.PutUint64(h[16:24], uint64(len(payload)))
	copy(h[24:40], tag[:])
	binary.LittleEndian.PutUint32(h[40:44], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(h[60:64], crc32.Checksum(h[:60], castagnoli))
	return h
}

// NewImage starts an in-memory container (the file header alone) for
// AppendSegment to extend — how a container is rendered for the wire, where
// there is no file to append to. Parse reads the result back.
func NewImage() []byte { return encodeFileHeader() }

// AppendSegment appends one framed segment — header, payload, zero padding
// to the next aligned boundary, the bytes Writer.Append puts in a file — to
// img, which must end on an aligned boundary (a NewImage, or the result of
// earlier AppendSegments). Sequence numbers must increase strictly from one
// segment to the next. (Writer.Append does not render through this: a bank
// arena is large, and a file needs no second copy of it.)
func AppendSegment(img []byte, kind uint32, seq uint64, tag [16]byte, payload []byte) []byte {
	img = slices.Grow(img, SegmentHeaderLen+len(payload)+Align)
	img = append(img, encodeSegmentHeader(kind, seq, tag, payload)...)
	img = append(img, payload...)
	return append(img, make([]byte, alignUp(int64(len(img)))-int64(len(img)))...)
}

// --- reading ---

// File is an opened container: the parsed segment walk over a mapped or
// heap-resident image. Closing a mapped File unmaps it, invalidating every
// Segment.Payload view handed out — the owner must not close while readers
// hold views.
type File struct {
	path   string
	data   []byte
	mapped bool
	segs   []Segment
	torn   *CorruptError // where the walk stopped early, if it did
}

// Open maps path read-only and walks its segment headers (payloads are
// checksummed by the caller, VerifyPayload). On platforms without mmap it
// falls back to a heap read.
func Open(path string) (*File, error) { return open(path, true) }

// OpenHeap reads path fully onto the heap and walks its segment headers.
// The returned File's payload views are heap-owned and survive Close.
func OpenHeap(path string) (*File, error) { return open(path, false) }

func open(path string, tryMap bool) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size > math.MaxInt {
		return nil, fmt.Errorf("bankseg: %s: file too large (%d bytes)", path, size)
	}
	var data []byte
	mapped := false
	if tryMap && mmapSupported && size >= FileHeaderLen {
		if m, merr := mmapFile(f, size); merr == nil {
			data, mapped = m, true
		}
	}
	if data == nil {
		data, err = io.ReadAll(f)
		if err != nil {
			return nil, fmt.Errorf("bankseg: %s: %w", path, err)
		}
	}
	sf := &File{path: path, data: data, mapped: mapped}
	if err := sf.parse(); err != nil {
		sf.Close()
		return nil, err
	}
	return sf, nil
}

// Parse walks an in-memory image (e.g. bytes received off the wire).
// The returned File is heap-backed; Close is a no-op.
func Parse(data []byte) (*File, error) {
	sf := &File{data: data}
	if err := sf.parse(); err != nil {
		return nil, err
	}
	return sf, nil
}

// parse verifies the file header and walks segment headers until the end of
// file or the first structural failure. A failure after at least the file
// header is recorded as the torn point rather than returned: the caller
// decides whether a torn tail is fatal (no commit point survives) or crash
// debris to ignore/truncate.
func (f *File) parse() error {
	if err := parseFileHeader(f.path, f.data); err != nil {
		return err
	}
	off := int64(FileHeaderLen)
	size := int64(len(f.data))
	var prevSeq uint64
	for off < size {
		idx := len(f.segs)
		fail := func(reason string, at int64) {
			f.torn = &CorruptError{Path: f.path, Segment: idx, Offset: at, Reason: reason}
		}
		if off+SegmentHeaderLen > size {
			fail("truncated segment header", off)
			return nil
		}
		h := f.data[off : off+SegmentHeaderLen]
		if string(h[0:4]) != string(segMagic) {
			fail("bad segment magic", off)
			return nil
		}
		if got, want := crc32.Checksum(h[:60], castagnoli), binary.LittleEndian.Uint32(h[60:64]); got != want {
			fail(fmt.Sprintf("segment header CRC mismatch (got %08x, want %08x)", got, want), off)
			return nil
		}
		seq := binary.LittleEndian.Uint64(h[8:16])
		if seq <= prevSeq {
			fail(fmt.Sprintf("sequence %d not after %d (duplicate or reordered segment)", seq, prevSeq), off)
			return nil
		}
		plen := binary.LittleEndian.Uint64(h[16:24])
		if plen > maxSegmentBytes {
			fail(fmt.Sprintf("payload length %d exceeds cap", plen), off)
			return nil
		}
		pstart := off + SegmentHeaderLen
		pend := pstart + int64(plen)
		if pend > size {
			fail("truncated segment payload", pstart)
			return nil
		}
		s := Segment{
			Kind:       binary.LittleEndian.Uint32(h[4:8]),
			Seq:        seq,
			Payload:    f.data[pstart:pend:pend],
			Offset:     off,
			End:        alignUp(pend),
			payloadCRC: binary.LittleEndian.Uint32(h[40:44]),
		}
		copy(s.Tag[:], h[24:40])
		// Padding between payload end and the next aligned boundary must be
		// zero; nonzero bytes mean an overlapping or misframed write.
		for _, b := range f.data[pend:min(s.End, size)] {
			if b != 0 {
				fail("nonzero padding after payload", pend)
				return nil
			}
		}
		f.segs = append(f.segs, s)
		prevSeq = seq
		off = s.End
	}
	return nil
}

// Segments returns the intact segment walk, in file order.
func (f *File) Segments() []Segment { return f.segs }

// Torn returns where the segment walk stopped early (nil for a clean walk
// to end-of-file). The segments before the torn point are still valid.
func (f *File) Torn() *CorruptError { return f.torn }

// Mapped reports whether the file image is an mmap region (payload views
// are zero-copy file pages) rather than a heap buffer.
func (f *File) Mapped() bool { return f.mapped }

// Path returns the file path ("" for Parse'd images).
func (f *File) Path() string { return f.path }

// Close releases the mapping. For heap-backed files it is a no-op (views
// stay valid under GC). Close is not idempotent-safe against concurrent
// readers of mapped payloads — the owner serializes lifetime.
func (f *File) Close() error {
	if !f.mapped || f.data == nil {
		f.data = nil
		return nil
	}
	data := f.data
	f.data, f.segs, f.mapped = nil, nil, false
	return munmap(data)
}

// --- writing ---

// Writer appends segments to a container. Two construction modes share
// it: Create builds a fresh file behind a temp name (Commit fsyncs and
// renames it into place), OpenAppend extends an existing file in place
// after truncating crash debris (Commit fsyncs).
type Writer struct {
	f       *os.File
	path    string
	tmp     string // non-empty in Create mode until Commit renames
	off     int64
	nextSeq uint64
}

// Create starts a fresh file that will land at path on Commit. The
// in-progress file uses a ".banktmp-" prefixed name so it can never be
// mistaken for a complete store entry.
func Create(path string) (*Writer, error) {
	dir := filepath.Dir(path)
	if dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("bankseg: create %s: %w", path, err)
		}
	}
	f, err := os.CreateTemp(dir, ".banktmp-*")
	if err != nil {
		return nil, fmt.Errorf("bankseg: create %s: %w", path, err)
	}
	w := &Writer{f: f, path: path, tmp: f.Name(), off: FileHeaderLen, nextSeq: 1}
	if _, err := f.Write(encodeFileHeader()); err != nil {
		w.Abort()
		return nil, fmt.Errorf("bankseg: create %s: %w", path, err)
	}
	return w, nil
}

// OpenAppend opens an existing file for growth. It re-verifies every
// segment (headers and payload CRCs), finds the last segment isCommit
// recognizes as a commit point, and physically truncates everything after
// it — crash debris from an interrupted previous append. It returns the
// surviving segments (heap-owned; they outlive the writer) alongside the
// writer, whose next sequence number continues the surviving chain, so a
// retried append after a crash converges to the same bytes.
func OpenAppend(path string, isCommit func(*Segment) bool) (*Writer, []Segment, error) {
	img, err := OpenHeap(path)
	if err != nil {
		return nil, nil, err
	}
	keep := -1
	for i := range img.segs {
		s := &img.segs[i]
		if err := s.VerifyPayload(); err != nil {
			// A payload CRC failure bounds the intact prefix exactly like a
			// header failure: nothing at or after it survives.
			break
		}
		if isCommit(s) {
			keep = i
		}
	}
	if keep < 0 {
		torn := img.torn
		if torn == nil {
			torn = &CorruptError{Path: path, Segment: 0, Offset: FileHeaderLen, Reason: "no intact commit segment"}
		}
		return nil, nil, torn
	}
	kept := img.segs[:keep+1]
	end := kept[keep].End
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("bankseg: append %s: %w", path, err)
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("bankseg: append %s: truncate debris: %w", path, err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("bankseg: append %s: %w", path, err)
	}
	return &Writer{f: f, path: path, off: end, nextSeq: kept[keep].Seq + 1}, kept, nil
}

// Append writes one segment (header, payload, zero padding to the next
// aligned boundary) and returns its sequence number. Nothing is durable
// until Commit.
func (w *Writer) Append(kind uint32, tag [16]byte, payload []byte) (uint64, error) {
	if int64(len(payload)) > maxSegmentBytes {
		return 0, fmt.Errorf("bankseg: segment payload %d bytes exceeds cap", len(payload))
	}
	seq := w.nextSeq
	h := encodeSegmentHeader(kind, seq, tag, payload)
	if _, err := w.f.Write(h); err != nil {
		return 0, fmt.Errorf("bankseg: append segment: %w", err)
	}
	if _, err := w.f.Write(payload); err != nil {
		return 0, fmt.Errorf("bankseg: append segment: %w", err)
	}
	end := w.off + SegmentHeaderLen + int64(len(payload))
	if pad := alignUp(end) - end; pad > 0 {
		if _, err := w.f.Write(make([]byte, pad)); err != nil {
			return 0, fmt.Errorf("bankseg: append segment: %w", err)
		}
		end += pad
	}
	w.off = end
	w.nextSeq = seq + 1
	return seq, nil
}

// Offset returns the file offset where the next segment header would land.
func (w *Writer) Offset() int64 { return w.off }

// Sync flushes written segments to stable storage without finishing the
// writer. Growth protocols sync data segments before writing the commit
// segment so the commit can never be durable ahead of its data.
func (w *Writer) Sync() error { return w.f.Sync() }

// Commit makes everything written durable and, in Create mode, atomically
// renames the temp file into place. The writer is spent afterwards.
func (w *Writer) Commit() error {
	if err := w.f.Sync(); err != nil {
		w.Abort()
		return fmt.Errorf("bankseg: commit %s: %w", w.path, err)
	}
	if err := w.f.Close(); err != nil {
		w.cleanup()
		return fmt.Errorf("bankseg: commit %s: %w", w.path, err)
	}
	w.f = nil
	if w.tmp != "" {
		if err := os.Rename(w.tmp, w.path); err != nil {
			os.Remove(w.tmp)
			return fmt.Errorf("bankseg: commit %s: %w", w.path, err)
		}
		w.tmp = ""
	}
	return nil
}

// Abort discards the writer. In Create mode the temp file is removed; in
// append mode the file keeps whatever was written (un-synced, past the
// last commit — exactly the debris OpenAppend truncates on the next open).
func (w *Writer) Abort() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	w.cleanup()
}

func (w *Writer) cleanup() {
	if w.tmp != "" {
		os.Remove(w.tmp)
		w.tmp = ""
	}
}
