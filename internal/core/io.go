package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"noisyeval/internal/core/bankseg"
)

// saveWriterHook, when non-nil, wraps the temp-file writer inside SaveBank.
// It exists so tests can inject mid-encode write failures and assert the
// cleanup contract (no temp file left behind, destination untouched). Always
// nil outside tests.
var saveWriterHook func(io.Writer) io.Writer

// SaveBank writes the bank to path in bankfmt/v3 (see bankfmt.go). Banks are
// the expensive artifact of the study (cmd/bank builds them; cmd/figures
// reuses them), so the write is crash-safe: encode into a temp file in the
// destination directory, fsync, then atomically rename. A failed encode
// removes the temp file and leaves any existing file at path untouched.
func SaveBank(b *Bank, path string) error {
	if err := b.Validate(); err != nil {
		return fmt.Errorf("core: refusing to save invalid bank: %w", err)
	}
	dir := filepath.Dir(path)
	if dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("core: save bank: %w", err)
		}
	}
	// The temp name must not match the BankStore's *.bank entry glob, so a
	// half-written artifact is never visible as a cache entry.
	f, err := os.CreateTemp(dir, ".banktmp-*")
	if err != nil {
		return fmt.Errorf("core: save bank: %w", err)
	}
	tmpPath := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmpPath)
		return err
	}
	var w io.Writer = f
	if saveWriterHook != nil {
		w = saveWriterHook(w)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := EncodeBank(bw, b); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(fmt.Errorf("core: save bank: %w", err))
	}
	// fsync before rename: the rename must never publish an entry whose
	// bytes could still vanish in a crash (the BankStore would see a
	// truncated artifact and silently retrain).
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("core: save bank: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("core: save bank: %w", err)
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("core: save bank: %w", err)
	}
	return nil
}

// LoadBank reads a bank written by SaveBank (bankfmt/v3) or SaveBankV4
// (segmented bankfmt/v4) and validates it; the version is sniffed from the
// header. v4 loads verify every segment CRC and materialize a canonical
// heap arena — the fully-checked counterpart of OpenBankMapped. Corruption
// surfaces as a *CorruptError naming the failing section or segment and its
// offset.
func LoadBank(path string) (*Bank, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load bank: %w", err)
	}
	defer f.Close()
	b, err := decodeBankAuto(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) && ce.Path == "" {
			ce.Path = path
		}
		return nil, err
	}
	return b, nil
}

// DecodeBank reads one bank encoding (bankfmt/v3 or v4) from r and
// validates it (the internal/dist peer tier decodes banks straight off the
// wire with it, so peers can ship either generation).
func DecodeBank(r io.Reader) (*Bank, error) { return decodeBankAuto(r) }

// decodeBankAuto sniffs the format generation and dispatches: a v4 header
// routes to the segment layer (full payload verification, canonical heap
// arena), anything else to the v3 frame decoder.
func decodeBankAuto(r io.Reader) (*Bank, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 64<<10)
	}
	if prefix, err := br.Peek(8); err == nil && bankseg.SniffV4(prefix) {
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("core: load bank v4: %w", err)
		}
		sf, err := bankseg.Parse(data)
		if err != nil {
			return nil, wrapSegmentErr("", err)
		}
		b, _, err := assembleBankV4(sf, true, false)
		return b, err
	}
	return decodeBank(br)
}

// decodeBank reads one bank encoding from r and validates it. A non-nil
// error means the content itself is bad (truncation, bit rot, checksum
// mismatch) or in a stale format generation (legacy gob+gzip, future
// version — see IsStaleBankFormat). The BankStore uses this distinction to
// evict corrupt or stale entries and rebuild, never to surface errors for
// transient open failures.
func decodeBank(r io.Reader) (*Bank, error) {
	b, err := decodeBankBinary(r)
	if err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("core: loaded bank invalid: %w", err)
	}
	b.ensureIndex()
	return b, nil
}
