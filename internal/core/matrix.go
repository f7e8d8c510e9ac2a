package core

import (
	"fmt"
	"math"
)

// ErrMatrix is the dense error tensor at the heart of the bank: one
// contiguous []uint32 arena of wrong-counts indexed as
//
//	[partition][config][checkpoint][client]   (row-major)
//
// Element (p, c, r, k) counts the validation examples of client k (under
// partition p) that config c's model misclassifies at checkpoint r. The
// error rate every reader sees is that count over the client's example
// count, Bank.ExampleCounts[p][k] — one IEEE division of two integers, so
// every reader sees the same bits (ratesInto; a client with no examples has
// rate 0).
//
// Contiguity is what makes every warm path cheap: the codec writes and reads
// the whole tensor as one little-endian byte run straight into the arena,
// shard reassembly is one bulk copy per (partition, shard) block, and oracle
// reads walk row views over memory the prefetcher likes.
//
// Backing store: a matrix is either heap-backed (Counts holds the canonical
// arena, segs nil) or segment-backed (segs cover contiguous config ranges,
// each a view into an mmap'd arena segment laid out
// [partition][config-lo][checkpoint][client]). Row/ConfigBlock dispatch on
// the backing, so oracle reads are bit-identical either way; Arena
// materializes the canonical order when a single flat slice is needed
// (encoding, fingerprinting).
//
// The exported fields exist for encoding; treat a populated matrix as
// immutable and go through Row for access.
type ErrMatrix struct {
	// Parts, Configs, Checkpoints, Clients are the tensor dimensions.
	Parts, Configs, Checkpoints, Clients int
	// Counts is the arena, len = Parts*Configs*Checkpoints*Clients. Nil
	// when the matrix is segment-backed.
	Counts []uint32
	// segs, when non-nil, back the matrix with per-config-range blocks
	// (sorted, contiguous from config 0). Set only by the mapped-open
	// path.
	segs []errSeg
}

// errSeg is one config-range backing block of a segment-backed matrix:
// configs [lo, hi) of every partition, laid out [part][config-lo][ckpt][client]
// — the BankShard layout, which for the full range [0, Configs) equals the
// canonical arena order.
type errSeg struct {
	lo, hi int
	data   []uint32
}

// NewErrMatrix allocates a zeroed dense matrix with the given dimensions.
func NewErrMatrix(parts, configs, checkpoints, clients int) ErrMatrix {
	return ErrMatrix{
		Parts: parts, Configs: configs, Checkpoints: checkpoints, Clients: clients,
		Counts: make([]uint32, parts*configs*checkpoints*clients),
	}
}

// newSegmentedMatrix wires a matrix over per-range backing blocks without
// copying them (the mapped-open path). Ranges must be sorted and cover
// [0, configs) contiguously; Validate enforces it.
func newSegmentedMatrix(parts, configs, checkpoints, clients int, segs []errSeg) ErrMatrix {
	return ErrMatrix{
		Parts: parts, Configs: configs, Checkpoints: checkpoints, Clients: clients,
		segs: segs,
	}
}

// Segmented reports whether the matrix is backed by per-range segments
// rather than one canonical heap arena.
func (m *ErrMatrix) Segmented() bool { return m.segs != nil }

// Row returns the per-client wrong-count vector of (partition pi, config ci,
// checkpoint ri) as a view into the arena. The slice is owned by the matrix;
// only the builder writes through it.
func (m *ErrMatrix) Row(pi, ci, ri int) []uint32 {
	if m.segs != nil {
		return m.segRow(pi, ci, ri)
	}
	off := ((pi*m.Configs+ci)*m.Checkpoints + ri) * m.Clients
	return m.Counts[off : off+m.Clients : off+m.Clients]
}

// segRow resolves a row in a segment-backed matrix: a linear scan over the
// (few — one per growth step) segments, then the shard-layout offset within
// the owning block. Zero allocations; segments are sorted so the first with
// ci < hi owns the config.
func (m *ErrMatrix) segRow(pi, ci, ri int) []uint32 {
	for si := range m.segs {
		s := &m.segs[si]
		if ci < s.hi {
			off := ((pi*(s.hi-s.lo)+(ci-s.lo))*m.Checkpoints + ri) * m.Clients
			return s.data[off : off+m.Clients : off+m.Clients]
		}
	}
	panic(fmt.Sprintf("core: config %d outside segmented matrix of %d configs", ci, m.Configs))
}

// ConfigBlock returns the contiguous sub-arena covering configs [lo, hi) of
// partition pi — every checkpoint and client of those configs. Shard
// reassembly copies blocks, never rows. On a segment-backed matrix the
// requested range must lie within one backing segment (growth ranges are
// segment-granular, so every caller's range does).
func (m *ErrMatrix) ConfigBlock(pi, lo, hi int) []uint32 {
	if m.segs != nil {
		for si := range m.segs {
			s := &m.segs[si]
			if lo >= s.lo && hi <= s.hi {
				stride := m.Checkpoints * m.Clients
				n := s.hi - s.lo
				off := (pi*n + (lo - s.lo)) * stride
				end := (pi*n + (hi - s.lo)) * stride
				return s.data[off:end:end]
			}
		}
		panic(fmt.Sprintf("core: config block [%d,%d) spans segment boundaries", lo, hi))
	}
	stride := m.Checkpoints * m.Clients
	off := (pi*m.Configs + lo) * stride
	end := (pi*m.Configs + hi) * stride
	return m.Counts[off:end:end]
}

// Arena returns the matrix content as one canonical [part][config][ckpt][client]
// arena. Heap-backed matrices return Counts directly (no copy);
// segment-backed ones materialize a fresh canonical copy — encoding and
// fingerprinting go through this, so a mapped bank encodes byte-identically
// to its heap twin.
func (m *ErrMatrix) Arena() []uint32 {
	if m.segs == nil {
		return m.Counts
	}
	out := NewErrMatrix(m.Parts, m.Configs, m.Checkpoints, m.Clients)
	for si := range m.segs {
		s := &m.segs[si]
		for pi := 0; pi < m.Parts; pi++ {
			copy(out.ConfigBlock(pi, s.lo, s.hi), m.ConfigBlock(pi, s.lo, s.hi))
		}
	}
	return out.Counts
}

// Validate checks dimensional integrity: non-negative dims and backing of
// exactly the implied length — one canonical arena, or segments that cover
// [0, Configs) contiguously with correctly sized blocks.
func (m *ErrMatrix) Validate() error {
	if m.Parts < 0 || m.Configs < 0 || m.Checkpoints < 0 || m.Clients < 0 {
		return fmt.Errorf("core: err matrix has negative dimension %dx%dx%dx%d",
			m.Parts, m.Configs, m.Checkpoints, m.Clients)
	}
	if m.segs != nil {
		next := 0
		for i, s := range m.segs {
			if s.lo != next || s.hi <= s.lo {
				return fmt.Errorf("core: err matrix segment %d covers [%d,%d), want to start at %d", i, s.lo, s.hi, next)
			}
			if want := m.Parts * (s.hi - s.lo) * m.Checkpoints * m.Clients; len(s.data) != want {
				return fmt.Errorf("core: err matrix segment %d has %d counts, want %d", i, len(s.data), want)
			}
			next = s.hi
		}
		if next != m.Configs {
			return fmt.Errorf("core: err matrix segments cover %d configs, want %d", next, m.Configs)
		}
		return nil
	}
	if want := m.Parts * m.Configs * m.Checkpoints * m.Clients; len(m.Counts) != want {
		return fmt.Errorf("core: err matrix arena has %d counts, want %d (%dx%dx%dx%d)",
			len(m.Counts), want, m.Parts, m.Configs, m.Checkpoints, m.Clients)
	}
	return nil
}

// CheckShape verifies the matrix has exactly the given dimensions (and a
// consistent arena).
func (m *ErrMatrix) CheckShape(parts, configs, checkpoints, clients int) error {
	if m.Parts != parts || m.Configs != configs || m.Checkpoints != checkpoints || m.Clients != clients {
		return fmt.Errorf("core: err matrix is %dx%dx%dx%d, want %dx%dx%dx%d",
			m.Parts, m.Configs, m.Checkpoints, m.Clients, parts, configs, checkpoints, clients)
	}
	return m.Validate()
}

// rateDivisors returns the divisor vector that turns one partition's count
// rows into error rates: float64(n) for a client with n examples, and +Inf
// for a client with none, so its rate is 0 (0/+Inf) exactly as the builder
// defines it. Oracles build it once and reuse it for every row they read.
func rateDivisors(exampleCounts []int) []float64 {
	den := make([]float64, len(exampleCounts))
	for k, n := range exampleCounts {
		den[k] = math.Inf(1)
		if n > 0 {
			den[k] = float64(n)
		}
	}
	return den
}

// ratesInto writes the error rates of a count row into dst, grown to
// len(row) if needed, and returns it: dst[k] = float64(row[k]) / den[k] with
// den from rateDivisors. This is the one place a count becomes a rate, so
// every reader — the oracle's row sweep, TrueError, ClientErrors — sees the
// quotient the builder's division defines; the core golden bank hashes pin
// its bits.
func ratesInto(dst []float64, row []uint32, den []float64) []float64 {
	if cap(dst) < len(row) {
		dst = make([]float64, len(row))
	}
	dst = dst[:len(row)]
	den = den[:len(row)]
	for k, c := range row {
		dst[k] = float64(c) / den[k]
	}
	return dst
}
