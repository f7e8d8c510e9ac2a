package core

import (
	"fmt"
	"math"
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
// The counts are one []uint32 in that canonical order — the layout a
// BankShard trains into and an arena segment stores. Whether its memory is
// the heap, a decoded image or an mmap'd arena segment is decided where it
// is read (assembleBankV4), not by the matrix: Row, encoding and
// fingerprinting see the same bits either way.
//
// Treat a populated matrix as immutable and go through Row for access.
type ErrMatrix struct {
	// Parts, Configs, Checkpoints, Clients are the tensor dimensions.
	Parts, Configs, Checkpoints, Clients int
	// counts holds Parts*Configs*Checkpoints*Clients counts in canonical order.
	counts []uint32
}

// NewErrMatrix allocates a zeroed matrix with the given dimensions.
func NewErrMatrix(parts, configs, checkpoints, clients int) ErrMatrix {
	return ErrMatrix{Parts: parts, Configs: configs, Checkpoints: checkpoints, Clients: clients,
		counts: make([]uint32, parts*configs*checkpoints*clients)}
}

// Row returns the per-client wrong-count vector of (partition pi, config ci,
// checkpoint ri) as a view into the matrix. Zero allocations. The slice is
// owned by the matrix; only a builder or a test fixture writes through it.
// A config outside [0, Configs) panics: with one slab it would otherwise
// read a neighbouring partition's row.
func (m *ErrMatrix) Row(pi, ci, ri int) []uint32 {
	if uint(ci) >= uint(m.Configs) {
		panic(fmt.Sprintf("core: config %d outside a matrix of %d configs", ci, m.Configs))
	}
	off := ((pi*m.Configs+ci)*m.Checkpoints + ri) * m.Clients
	return m.counts[off : off+m.Clients : off+m.Clients]
}

// joinCounts returns the matrix whose configs are the pieces' configs in
// order: pieces[0] holds configs [0, pieces[0].Configs), each next piece the
// range after it. The pieces share parts, checkpoints and clients (the
// callers check their shapes). One piece is already in canonical order and
// is adopted as it is; several are copied once into a new slab, partition by
// partition.
func joinCounts(pieces []ErrMatrix) ErrMatrix {
	if len(pieces) == 1 {
		return pieces[0]
	}
	var m ErrMatrix
	for _, pc := range pieces {
		m = ErrMatrix{Parts: pc.Parts, Configs: m.Configs + pc.Configs, Checkpoints: pc.Checkpoints, Clients: pc.Clients}
	}
	m.counts = make([]uint32, 0, m.Parts*m.Configs*m.Checkpoints*m.Clients)
	for pi := 0; pi < m.Parts; pi++ {
		for _, pc := range pieces {
			n := pc.Configs * pc.Checkpoints * pc.Clients
			m.counts = append(m.counts, pc.counts[pi*n:(pi+1)*n]...)
		}
	}
	return m
}

// Validate checks dimensional integrity: non-negative dims, and exactly the
// counts they imply. Decoders run it on bytes read from disk or the wire.
func (m *ErrMatrix) Validate() error {
	if m.Parts < 0 || m.Configs < 0 || m.Checkpoints < 0 || m.Clients < 0 {
		return fmt.Errorf("core: err matrix has negative dimension %dx%dx%dx%d",
			m.Parts, m.Configs, m.Checkpoints, m.Clients)
	}
	if want := m.Parts * m.Configs * m.Checkpoints * m.Clients; len(m.counts) != want {
		return fmt.Errorf("core: err matrix has %d counts, want %d (%dx%dx%dx%d)",
			len(m.counts), want, m.Parts, m.Configs, m.Checkpoints, m.Clients)
	}
	return nil
}

// CheckShape verifies the matrix has exactly the given dimensions (and
// their count).
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
	n := m.Configs * m.Checkpoints * m.Clients
	for pi := 0; pi < m.Parts; pi++ {
		examples := exampleCounts[pi][:m.Clients]
		part := m.counts[pi*n : (pi+1)*n]
		for off := 0; off < len(part); off += m.Clients {
			for k, c := range part[off : off+m.Clients] {
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
