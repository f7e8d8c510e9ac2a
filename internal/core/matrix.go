package core

import (
	"fmt"
	"iter"
	"math"
	"slices"

	"noisyeval/internal/core/bankseg"
)

// ErrMatrix is the dense error tensor at the heart of the bank, indexed as
//
//	[partition][config][checkpoint][client]
//
// Element (p, c, r, k) counts the validation examples of client k (under
// partition p) that config c's model misclassifies at checkpoint r. The
// error rate every reader sees is that count over the client's example
// count, Bank.ExampleCounts[p][k] — one IEEE division of two integers, so
// every reader sees the same bits (ratesInto; a client with no examples has
// rate 0).
//
// The counts live in an ordered list of blocks. A block covers configs
// [lo, hi) of every partition as one contiguous []uint32 laid out
// [partition][config-lo][checkpoint][client] — the layout a BankShard
// trains into and an arena segment stores — and the blocks cover
// [0, Configs) in order. A cold build has one block, whose layout is the
// canonical order; a bank assembled from shards or grown has one block per
// shard or growth step, each adopted without a copy. Whether a block's
// memory is the heap, a decoded image or an mmap'd arena segment is
// decided where it is read (assembleBankV4), not by the matrix: Row,
// encoding and fingerprinting see the same bits either way.
//
// Treat a populated matrix as immutable and go through Row for access.
type ErrMatrix struct {
	// Parts, Configs, Checkpoints, Clients are the tensor dimensions.
	Parts, Configs, Checkpoints, Clients int
	// blocks are the count blocks, sorted and contiguous from config 0.
	blocks []countBlock
}

// countBlock holds configs [lo, hi) of every partition, laid out
// [partition][config-lo][checkpoint][client].
type countBlock struct {
	lo, hi int
	counts []uint32
}

// NewErrMatrix allocates a zeroed matrix with the given dimensions: one
// heap block covering every config.
func NewErrMatrix(parts, configs, checkpoints, clients int) ErrMatrix {
	m := ErrMatrix{Parts: parts, Configs: configs, Checkpoints: checkpoints, Clients: clients}
	if configs > 0 {
		m.blocks = []countBlock{{lo: 0, hi: configs, counts: make([]uint32, parts*configs*checkpoints*clients)}}
	}
	return m
}

// Row returns the per-client wrong-count vector of (partition pi, config ci,
// checkpoint ri) as a view into the block that holds config ci: a scan over
// the (few — one per shard or growth step) blocks, then the block-layout
// offset. Zero allocations. The slice is owned by the matrix; only a builder
// or a test fixture writes through it.
func (m *ErrMatrix) Row(pi, ci, ri int) []uint32 {
	for i := range m.blocks {
		b := &m.blocks[i]
		if ci < b.hi {
			off := ((pi*(b.hi-b.lo)+ci-b.lo)*m.Checkpoints + ri) * m.Clients
			return b.counts[off : off+m.Clients : off+m.Clients]
		}
	}
	panic(fmt.Sprintf("core: config %d outside a matrix of %d configs", ci, m.Configs))
}

// runs yields the counts in canonical [partition][config][checkpoint][client]
// order as contiguous runs: for each partition, each block's slab of it.
// Every writer of counts (SaveBankV4, MarshalShardV4, ExtendBankV4) and
// BankFingerprint walk this, so a bank encodes and hashes the same however
// its blocks are split.
func (m *ErrMatrix) runs() iter.Seq[[]uint32] {
	return func(yield func([]uint32) bool) {
		stride := m.Checkpoints * m.Clients
		for pi := 0; pi < m.Parts; pi++ {
			for _, b := range m.blocks {
				n := (b.hi - b.lo) * stride
				if !yield(b.counts[pi*n : (pi+1)*n]) {
					return
				}
			}
		}
	}
}

// appendCounts appends the matrix's counts in canonical order as the
// little-endian bytes of an arena segment payload.
func appendCounts(dst []byte, m *ErrMatrix) []byte {
	dst = slices.Grow(dst, m.Parts*m.Configs*m.Checkpoints*m.Clients*arenaElemBytes)
	for run := range m.runs() {
		dst = bankseg.AppendUint32s(dst, run)
	}
	return dst
}

// Validate checks dimensional integrity: non-negative dims, and blocks that
// cover [0, Configs) contiguously, each holding exactly the counts its range
// implies. Decoders run it on bytes read from disk or the wire.
func (m *ErrMatrix) Validate() error {
	if m.Parts < 0 || m.Configs < 0 || m.Checkpoints < 0 || m.Clients < 0 {
		return fmt.Errorf("core: err matrix has negative dimension %dx%dx%dx%d",
			m.Parts, m.Configs, m.Checkpoints, m.Clients)
	}
	next := 0
	for i, b := range m.blocks {
		if b.lo != next || b.hi <= b.lo {
			return fmt.Errorf("core: err matrix block %d covers [%d,%d), want to start at %d", i, b.lo, b.hi, next)
		}
		if want := m.Parts * (b.hi - b.lo) * m.Checkpoints * m.Clients; len(b.counts) != want {
			return fmt.Errorf("core: err matrix block %d has %d counts, want %d", i, len(b.counts), want)
		}
		next = b.hi
	}
	if next != m.Configs {
		return fmt.Errorf("core: err matrix blocks cover %d configs, want %d (%dx%dx%dx%d)",
			next, m.Configs, m.Parts, m.Configs, m.Checkpoints, m.Clients)
	}
	return nil
}

// CheckShape verifies the matrix has exactly the given dimensions (and
// consistent blocks).
func (m *ErrMatrix) CheckShape(parts, configs, checkpoints, clients int) error {
	if m.Parts != parts || m.Configs != configs || m.Checkpoints != checkpoints || m.Clients != clients {
		return fmt.Errorf("core: err matrix is %dx%dx%dx%d, want %dx%dx%dx%d",
			m.Parts, m.Configs, m.Checkpoints, m.Clients, parts, configs, checkpoints, clients)
	}
	return m.Validate()
}

// checkCounts rejects a count above its client's example count,
// exampleCounts[p][k] — an error rate above 1, which no build produces.
// Every bank read and shard upload runs it.
func (m *ErrMatrix) checkCounts(exampleCounts [][]int) error {
	i := 0
	for run := range m.runs() {
		pi := i / len(m.blocks)
		examples := exampleCounts[pi][:m.Clients]
		i++
		for off := 0; off < len(run); off += m.Clients {
			for k, c := range run[off : off+m.Clients] {
				if int64(c) > int64(examples[k]) {
					return fmt.Errorf("core: client %d under partition %d counts %d wrong of %d examples",
						k, pi, c, examples[k])
				}
			}
		}
	}
	return nil
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
