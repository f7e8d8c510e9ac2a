package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"noisyeval/internal/core/bankseg"
	"noisyeval/internal/fl"
)

// This file holds the byte-level pieces of bankfmt/v5 that are not segment
// framing (internal/core/bankseg owns that): the hand-rolled binary encoding
// of a bank's metadata — the body of a commit segment, see bankv4.go — and
// the 8-byte sniff that recognises the retired encodings (the gob+gzip
// original, the monolithic bankfmt/v3 frame and the float64 arenas of
// bankfmt/v4). Nothing reads those any more: a stale file is named, never
// decoded, and cmd/bank reproduces its bank bit for bit from the flags that
// built it.

// arenaElemBytes is the size of one arena element, a uint32 wrong-count.
const arenaElemBytes = 4

// maxBankArenaBytes bounds the arena a bank (a store entry or a peer
// transfer) may demand. A paper-scale bank (3 partitions x 128 configs x 6
// checkpoints x 10k clients) is ~92 MB; 4 GB is the same
// two-orders-of-magnitude headroom the dist wire caps use.
const maxBankArenaBytes = 4 << 30

// MaxBankImageBytes bounds a whole bankfmt/v5 image: the arena cap plus room
// for metadata and segment framing. Readers of bank bytes from outside the
// process (internal/dist's peer fetch) inflate no further than this.
const MaxBankImageBytes = maxBankArenaBytes + 64<<20

var (
	// ErrLegacyBankFormat reports bytes in a retired encoding: the original
	// gob+gzip, or a bankfmt generation older than v5.
	ErrLegacyBankFormat = errors.New("core: retired bank encoding")
	// ErrUnknownBankVersion reports a bankfmt stream from a future format
	// version.
	ErrUnknownBankVersion = errors.New("core: unknown bank format version")
)

// IsStaleBankFormat reports whether err means "valid artifact, wrong
// encoding generation" — a retired encoding or a future format version.
// The BankStore evicts and rebuilds such entries instead of erroring.
func IsStaleBankFormat(err error) bool {
	return errors.Is(err, ErrLegacyBankFormat) || errors.Is(err, ErrUnknownBankVersion)
}

// sniffBankGeneration classifies a bank image by its first 8 bytes: the
// format generation (0 for the gob+gzip original) and, for every generation
// but the current one (bankseg.Version), the stale-format error naming it
// and the fix. Bytes that belong to no generation report the current
// version with a nil error — the segment layer then locates what is wrong
// with them.
func sniffBankGeneration(prefix []byte) (version int, err error) {
	const fix = "rebuild it with cmd/bank (the flags that built it reproduce it bit for bit)"
	switch {
	case len(prefix) >= 2 && prefix[0] == 0x1f && prefix[1] == 0x8b:
		return 0, fmt.Errorf("%w (gob+gzip): %s", ErrLegacyBankFormat, fix)
	case len(prefix) >= 8 && string(prefix[:6]) == "NEBANK":
		switch v := int(binary.LittleEndian.Uint16(prefix[6:8])); {
		case v < bankseg.Version:
			return v, fmt.Errorf("%w (bankfmt/v%d): %s", ErrLegacyBankFormat, v, fix)
		case v > bankseg.Version:
			return v, fmt.Errorf("%w: bankfmt/v%d (this build reads v%d)", ErrUnknownBankVersion, v, bankseg.Version)
		}
	}
	return bankseg.Version, nil
}

// --- metadata primitives ---

func appendU32(b []byte, v uint32) []byte  { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte   { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

// appendBools appends one byte per flag.
func appendBools(b []byte, flags []bool) []byte {
	for _, f := range flags {
		if f {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// metaReader parses a metadata section with a sticky error: after the first
// truncation every subsequent read returns zero values, and the caller checks
// r.err once at the end. Count fields are validated against the remaining
// bytes BEFORE any allocation, so corrupt lengths fail cleanly instead of
// demanding absurd memory.
type metaReader struct {
	b   []byte
	off int
	err error
}

func (r *metaReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("core: bankfmt metadata truncated at %s (offset %d of %d)", what, r.off, len(r.b))
	}
}

func (r *metaReader) take(n int, what string) []byte {
	if r.err != nil || n < 0 || len(r.b)-r.off < n {
		r.fail(what)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *metaReader) u32(what string) uint32 {
	if b := r.take(4, what); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *metaReader) u64(what string) uint64 {
	if b := r.take(8, what); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *metaReader) i64(what string) int64   { return int64(r.u64(what)) }
func (r *metaReader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

// count reads a u32 element count and verifies the remaining bytes can hold
// it at elemSize bytes per element.
func (r *metaReader) count(elemSize int, what string) int {
	n := int(r.u32(what))
	if r.err == nil && (n < 0 || elemSize > 0 && n > (len(r.b)-r.off)/elemSize) {
		r.fail(what + " length")
	}
	if r.err != nil {
		return 0
	}
	return n
}

func (r *metaReader) str(what string) string {
	n := r.count(1, what)
	return string(r.take(n, what))
}

// bools reads n one-byte flags (the encoding of appendBools).
func (r *metaReader) bools(n int, what string) []bool {
	raw := r.take(n, what)
	out := make([]bool, len(raw))
	for i, v := range raw {
		out[i] = v != 0
	}
	return out
}

func (r *metaReader) done() error {
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("core: bankfmt metadata has %d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// --- bank metadata ---

// hparamsFloats is the number of float64 fields serialized per config.
const hparamsFloats = 7

func appendHParams(b []byte, c fl.HParams) []byte {
	b = appendF64(b, c.ServerLR)
	b = appendF64(b, c.Beta1)
	b = appendF64(b, c.Beta2)
	b = appendF64(b, c.LRDecay)
	b = appendF64(b, c.ClientLR)
	b = appendF64(b, c.ClientMomentum)
	b = appendF64(b, c.WeightDecay)
	b = appendI64(b, int64(c.BatchSize))
	b = appendI64(b, int64(c.Epochs))
	return b
}

func appendBankMeta(buf []byte, b *Bank) []byte {
	buf = appendU32(buf, uint32(len(b.SpecName)))
	buf = append(buf, b.SpecName...)
	buf = appendU64(buf, b.Seed)
	buf = appendU32(buf, uint32(len(b.Configs)))
	for _, c := range b.Configs {
		buf = appendHParams(buf, c)
	}
	buf = appendU32(buf, uint32(len(b.Rounds)))
	for _, r := range b.Rounds {
		buf = appendI64(buf, int64(r))
	}
	buf = appendU32(buf, uint32(len(b.Partitions)))
	for _, p := range b.Partitions {
		buf = appendF64(buf, p)
	}
	buf = appendU32(buf, uint32(len(b.ExampleCounts)))
	if len(b.ExampleCounts) > 0 {
		buf = appendU32(buf, uint32(len(b.ExampleCounts[0])))
	} else {
		buf = appendU32(buf, 0)
	}
	for _, row := range b.ExampleCounts {
		for _, n := range row {
			buf = appendI64(buf, int64(n))
		}
	}
	buf = appendU32(buf, uint32(len(b.Diverged)))
	return appendBools(buf, b.Diverged)
}

// parseBankMeta rebuilds the bank skeleton (everything but the error arena)
// from a metadata section.
func parseBankMeta(meta []byte) (*Bank, error) {
	r := &metaReader{b: meta}
	b := &Bank{}
	b.SpecName = r.str("spec name")
	b.Seed = r.u64("seed")
	const hparamsBytes = hparamsFloats*8 + 16
	nc := r.count(hparamsBytes, "configs")
	b.Configs = make([]fl.HParams, nc)
	if raw := r.take(nc*hparamsBytes, "configs"); raw != nil {
		for i := range b.Configs {
			f := raw[i*hparamsBytes:]
			b.Configs[i] = fl.HParams{
				ServerLR:       math.Float64frombits(binary.LittleEndian.Uint64(f[0:])),
				Beta1:          math.Float64frombits(binary.LittleEndian.Uint64(f[8:])),
				Beta2:          math.Float64frombits(binary.LittleEndian.Uint64(f[16:])),
				LRDecay:        math.Float64frombits(binary.LittleEndian.Uint64(f[24:])),
				ClientLR:       math.Float64frombits(binary.LittleEndian.Uint64(f[32:])),
				ClientMomentum: math.Float64frombits(binary.LittleEndian.Uint64(f[40:])),
				WeightDecay:    math.Float64frombits(binary.LittleEndian.Uint64(f[48:])),
				BatchSize:      int(int64(binary.LittleEndian.Uint64(f[56:]))),
				Epochs:         int(int64(binary.LittleEndian.Uint64(f[64:]))),
			}
		}
	}
	nr := r.count(8, "rounds")
	b.Rounds = make([]int, nr)
	for i := range b.Rounds {
		b.Rounds[i] = int(r.i64("round"))
	}
	np := r.count(8, "partitions")
	b.Partitions = make([]float64, np)
	for i := range b.Partitions {
		b.Partitions[i] = r.f64("partition")
	}
	rows := r.count(4, "example count rows")
	cols := int(r.u32("example count cols"))
	if r.err == nil && (cols < 0 || rows > 0 && cols > (len(r.b)-r.off)/(8*rows)) {
		r.fail("example count cols")
	}
	if raw := r.take(rows*cols*8, "example counts"); raw != nil {
		b.ExampleCounts = make([][]int, rows)
		flat := make([]int, rows*cols)
		for k := range flat {
			flat[k] = int(int64(binary.LittleEndian.Uint64(raw[k*8:])))
		}
		for i := range b.ExampleCounts {
			b.ExampleCounts[i] = flat[i*cols : (i+1)*cols]
		}
	}
	b.Diverged = r.bools(r.count(1, "diverged"), "diverged")
	if err := r.done(); err != nil {
		return nil, err
	}
	return b, nil
}

// dimsProduct multiplies tensor dimensions with overflow protection, so a
// corrupt metadata section can never wrap the implied arena length around to
// something that accidentally matches the arena segment's length.
func dimsProduct(dims ...int) (int, error) {
	p := 1
	for _, d := range dims {
		if d < 0 {
			return 0, fmt.Errorf("core: bankfmt dimension %d negative", d)
		}
		if d > 0 && p > (maxBankArenaBytes/arenaElemBytes)/d {
			return 0, fmt.Errorf("core: bankfmt dimensions overflow the %d-byte arena cap", int64(maxBankArenaBytes))
		}
		p *= d
	}
	return p, nil
}
