// Package journal is a durable, CRC-checked record log with periodic
// compacted snapshots — the persistence substrate under noisyevald's run
// registry. It is deliberately generic: records are opaque (kind, payload)
// pairs, and the serve layer owns their semantics (internal/serve's
// RunJournal folds them into run lifecycle state).
//
// Durability discipline matches bankseg.WriteFile, which publishes every bank
// file: snapshots are written to a temp file in the destination directory,
// fsynced, atomically renamed, and the directory fsynced;
// WAL appends are fsynced before returning (disable with Options.NoSync in
// tests). Every record frame carries a CRC-32C over its content, so a torn
// tail — a crash mid-append — is detected on open, truncated away, and
// counted, instead of poisoning the boot. Records after the first bad frame
// are discarded with it: a WAL is a prefix log, and anything past a corrupt
// frame has no trustworthy framing.
//
// On disk a journal directory holds two files:
//
//	snapshot   compacted fold of the log at the last Compact (may be absent)
//	wal        records appended since that snapshot
//
// Replay order is snapshot records then WAL records; Compact writes the new
// snapshot before truncating the WAL, so a crash between the two leaves
// both — replay then sees some records twice, which is why consumers must
// fold records idempotently (last write wins per key).
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ErrBudget reports an append that would push the journal past
// Options.MaxBytes. The caller decides whether to compact and retry or to
// shed the work that needed the record (noisyevald turns it into 503
// backpressure).
var ErrBudget = errors.New("journal: byte budget exhausted")

// File names inside a journal directory.
const (
	snapshotName = "snapshot"
	walName      = "wal"
)

// fileMagic opens both journal files; a version byte follows so a future
// format can coexist. Files with a foreign magic are refused (not truncated:
// an operator pointing -journal-dir at the wrong directory should get an
// error, not silent data loss).
var fileMagic = []byte("NEVJRNL\x01")

// Frame layout after the file header, per record:
//
//	u32  length of kind+payload (little endian)
//	u32  CRC-32C (Castagnoli) of kind length byte + kind + payload
//	u8   kind length
//	...  kind bytes
//	...  payload bytes
const frameHeader = 4 + 4 + 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one journal entry: an opaque payload tagged with a small kind
// string (the serve layer uses "submit", "start", "terminal").
type Record struct {
	Kind string
	Data []byte
}

// Options configures Open.
type Options struct {
	// Dir is the journal directory (created if missing).
	Dir string
	// MaxBytes is the hard byte budget across snapshot+WAL; appends that
	// would exceed it fail with ErrBudget (0 = 64 MiB, negative = unlimited).
	MaxBytes int64
	// NoSync skips fsync on appends and snapshots. Tests only: a kill -9
	// under NoSync may lose acknowledged records.
	NoSync bool
	// Log receives operational events (torn-tail truncation, compactions);
	// nil discards them.
	Log *slog.Logger
}

// DefaultMaxBytes is the journal byte budget when Options.MaxBytes is 0.
const DefaultMaxBytes = 64 << 20

// Stats is a snapshot of the journal's operational counters.
type Stats struct {
	// Replayed counts records recovered at Open (snapshot + WAL).
	Replayed int64
	// TornTails counts corrupt or truncated tails dropped at Open (0 or 1
	// per file; a reopened journal starts its own count).
	TornTails int64
	// Appends counts records durably appended this process lifetime.
	Appends int64
	// Compactions counts successful Compact calls.
	Compactions int64
	// SnapshotBytes and WALBytes are the current on-disk sizes.
	SnapshotBytes int64
	WALBytes      int64
	// LastCompact is when the current snapshot was written (zero when the
	// journal has never compacted in this process and no snapshot exists).
	LastCompact time.Time
}

// Journal is an open journal directory. All methods are safe for concurrent
// use; Append ordering across goroutines is the lock-acquisition order.
type Journal struct {
	opts Options

	mu            sync.Mutex
	wal           *os.File
	walBytes      int64
	snapshotBytes int64
	appends       int64
	compactions   int64
	replayed      int64
	tornTails     int64
	lastCompact   time.Time
	closed        bool
}

// Open opens (creating if necessary) the journal in opts.Dir and replays it:
// the returned records are the snapshot's followed by the WAL's, with any
// torn tail truncated off the files on disk before returning.
func Open(opts Options) (*Journal, []Record, error) {
	if opts.MaxBytes == 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.DiscardHandler)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{opts: opts}

	var records []Record
	for _, name := range []string{snapshotName, walName} {
		path := filepath.Join(opts.Dir, name)
		recs, goodLen, torn, err := readFile(path)
		if err != nil {
			return nil, nil, err
		}
		if torn {
			j.tornTails++
			j.opts.Log.Warn("journal torn tail truncated", "file", name, "kept_bytes", goodLen, "records", len(recs))
			if err := os.Truncate(path, goodLen); err != nil {
				return nil, nil, fmt.Errorf("journal: truncate torn %s: %w", name, err)
			}
		}
		records = append(records, recs...)
		if name == snapshotName {
			j.snapshotBytes = goodLen
		} else {
			j.walBytes = goodLen
		}
	}
	j.replayed = int64(len(records))
	if fi, err := os.Stat(filepath.Join(opts.Dir, snapshotName)); err == nil {
		j.lastCompact = fi.ModTime()
	}

	fresh := j.walBytes == 0
	wal, err := openAppend(filepath.Join(opts.Dir, walName), fresh)
	if err != nil {
		return nil, nil, err
	}
	if fresh {
		j.walBytes = int64(len(fileMagic))
	}
	j.wal = wal
	return j, records, nil
}

// openAppend opens a journal file for appending, writing the header when the
// file is empty (fresh means the readable prefix was empty — the header, if
// any, was consumed by truncation or never written).
func openAppend(path string, fresh bool) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if fresh {
		// Start over: a truncated-to-zero WAL must begin with a header.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: %w", err)
		}
		if _, err := f.Write(fileMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: write header: %w", err)
		}
	}
	return f, nil
}

// readFile decodes one journal file. A missing file is an empty journal.
// goodLen is the byte offset of the last intact frame's end (file header
// included); torn reports whether bytes past goodLen were dropped.
func readFile(path string) (recs []Record, goodLen int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("journal: %w", err)
	}
	if len(data) > 0 && len(data) < len(fileMagic) {
		// Shorter than a header: a crash during file creation. Treat the
		// whole file as a torn tail.
		return nil, 0, true, nil
	}
	if len(data) == 0 {
		return nil, 0, false, nil
	}
	if string(data[:len(fileMagic)]) != string(fileMagic) {
		return nil, 0, false, fmt.Errorf("journal: %s: not a journal file (bad magic)", path)
	}
	recs, consumed, torn := Decode(data[len(fileMagic):])
	return recs, int64(len(fileMagic)) + consumed, torn, nil
}

// Decode parses a sequence of record frames (no file header). It never
// fails: decoding stops at the first truncated or CRC-mismatching frame,
// returning the intact prefix, the number of bytes it spans, and whether
// trailing bytes were dropped. FuzzJournalReplay pins that this holds for
// arbitrary input.
func Decode(data []byte) (recs []Record, consumed int64, torn bool) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHeader {
			return recs, int64(off), true
		}
		n := int(binary.LittleEndian.Uint32(rest))
		crc := binary.LittleEndian.Uint32(rest[4:])
		if n < 1 || n > len(rest)-8 {
			return recs, int64(off), true
		}
		body := rest[8 : 8+n]
		if crc32.Checksum(body, castagnoli) != crc {
			return recs, int64(off), true
		}
		kindLen := int(body[0])
		if kindLen > n-1 {
			return recs, int64(off), true
		}
		recs = append(recs, Record{
			Kind: string(body[1 : 1+kindLen]),
			Data: append([]byte(nil), body[1+kindLen:]...),
		})
		off += 8 + n
	}
	return recs, int64(off), false
}

// encodeFrame renders one record frame.
func encodeFrame(r Record) ([]byte, error) {
	if len(r.Kind) > 255 {
		return nil, fmt.Errorf("journal: kind %q too long", r.Kind)
	}
	body := make([]byte, 1+len(r.Kind)+len(r.Data))
	body[0] = byte(len(r.Kind))
	copy(body[1:], r.Kind)
	copy(body[1+len(r.Kind):], r.Data)
	frame := make([]byte, 8+len(body))
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(body, castagnoli))
	copy(frame[8:], body)
	return frame, nil
}

// Append durably adds one record to the WAL. It returns ErrBudget when the
// journal would exceed its byte budget — the record is not written; the
// caller may Compact and retry.
func (j *Journal) Append(kind string, data []byte) error {
	frame, err := encodeFrame(Record{Kind: kind, Data: data})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	if j.opts.MaxBytes > 0 && j.snapshotBytes+j.walBytes+int64(len(frame)) > j.opts.MaxBytes {
		return fmt.Errorf("%w (%d+%d bytes, budget %d)", ErrBudget, j.snapshotBytes, j.walBytes, j.opts.MaxBytes)
	}
	if _, err := j.wal.Write(frame); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if !j.opts.NoSync {
		if err := j.wal.Sync(); err != nil {
			return fmt.Errorf("journal: append sync: %w", err)
		}
	}
	j.walBytes += int64(len(frame))
	j.appends++
	return nil
}

// Compact atomically replaces the snapshot with the given records (the
// caller's compacted fold of current state) and truncates the WAL. Write
// order is snapshot-then-WAL: a crash in between leaves the old WAL records
// alongside the new snapshot, and idempotent replay absorbs the duplicates.
func (j *Journal) Compact(records []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}

	tmp, err := os.CreateTemp(j.opts.Dir, ".snapshot-*")
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	tmpPath := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if _, err := tmp.Write(fileMagic); err != nil {
		return fail(fmt.Errorf("journal: compact: %w", err))
	}
	var snapBytes = int64(len(fileMagic))
	for _, r := range records {
		frame, err := encodeFrame(r)
		if err != nil {
			return fail(err)
		}
		if _, err := tmp.Write(frame); err != nil {
			return fail(fmt.Errorf("journal: compact: %w", err))
		}
		snapBytes += int64(len(frame))
	}
	if !j.opts.NoSync {
		if err := tmp.Sync(); err != nil {
			return fail(fmt.Errorf("journal: compact sync: %w", err))
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("journal: compact: %w", err)
	}
	snapPath := filepath.Join(j.opts.Dir, snapshotName)
	if err := os.Rename(tmpPath, snapPath); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("journal: compact: %w", err)
	}
	syncDir(j.opts.Dir, j.opts.NoSync)

	// Snapshot is durable; start a fresh WAL. Closing before reopening with
	// O_TRUNC keeps exactly one descriptor on the file.
	if err := j.wal.Close(); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	wal, err := openAppend(filepath.Join(j.opts.Dir, walName), true)
	if err != nil {
		return err
	}
	j.wal = wal
	j.walBytes = int64(len(fileMagic))
	j.snapshotBytes = snapBytes
	j.compactions++
	j.lastCompact = time.Now()
	j.opts.Log.Info("journal compacted", "records", len(records), "snapshot_bytes", snapBytes)
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable (best effort — some filesystems refuse directory fsync).
func syncDir(dir string, noSync bool) {
	if noSync {
		return
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Bytes returns the current on-disk footprint (snapshot + WAL).
func (j *Journal) Bytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotBytes + j.walBytes
}

// WALBytes returns the WAL's current size (the compaction trigger input).
func (j *Journal) WALBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.walBytes
}

// MaxBytes returns the configured byte budget.
func (j *Journal) MaxBytes() int64 { return j.opts.MaxBytes }

// Stats snapshots the operational counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Replayed:      j.replayed,
		TornTails:     j.tornTails,
		Appends:       j.appends,
		Compactions:   j.compactions,
		SnapshotBytes: j.snapshotBytes,
		WALBytes:      j.walBytes,
		LastCompact:   j.lastCompact,
	}
}

// Close syncs and closes the WAL. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if !j.opts.NoSync {
		j.wal.Sync()
	}
	return j.wal.Close()
}
