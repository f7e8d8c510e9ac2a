package core

import (
	"sync"
	"sync/atomic"

	"noisyeval/internal/eval"
	"noisyeval/internal/rng"
)

// biasTable keeps, for an oracle under a biased scheme, what the weighted
// sampler needs of each (client, wrong-count) pair it has met: the weight
// BiasWeight(c/den[k]) — the quotient ratesInto computes, through the
// evaluator's one weight function — and rng.PrepareWeight's 1/w and margin.
// A partition's counts hold at most Σ(n_k + 1) distinct pairs, against n
// clients per row visit, so the weights of a cell's thousands of visits are
// a few thousand values. A visit computes only the pairs no visit before it
// met: no oracle calls Pow more often than a weight per client per visit
// would, and a two-trial run pays for no pair it never sees.
//
// Pair (k, c) lives in slot off[k]+c, inside client k's span [off[k],
// off[k+1]). WithTrial copies and the block scheduler's row workers share one
// table: a slot is written once, under mu, and its ready flag is stored after
// its values, so a visit reads a ready slot without the lock. A pair outside
// its client's span has no slot, and each visit computes its weight: a count
// above the client's examples, and every pair of a partition with more than
// maxBiasSlots pairs, whose spans are all empty.
type biasTable struct {
	ev    *eval.Evaluator
	den   []float64  // the oracle's rate divisors
	off   []int      // off[k]: client k's first slot; off[len(den)]: the slot count
	mu    sync.Mutex // serializes the fills
	slots []biasSlot
}

// biasSlot is one (client, wrong-count) pair's prepared weight.
type biasSlot struct {
	ready          atomic.Bool // set once w, inv and margin hold the pair's values
	w, inv, margin float64
}

// maxBiasSlots caps a table at 2 MiB of slots.
const maxBiasSlots = 1 << 16

// newBiasTable sizes the table of a partition whose clients hold
// exampleCounts examples; the slots wait for the visits that meet them.
func newBiasTable(ev *eval.Evaluator, exampleCounts []int, den []float64) *biasTable {
	t := &biasTable{ev: ev, den: den, off: make([]int, len(exampleCounts)+1)}
	size := 0
	for _, n := range exampleCounts {
		size += max(n, 0) + 1
	}
	if size > maxBiasSlots {
		return t
	}
	for k, n := range exampleCounts {
		t.off[k+1] = t.off[k] + max(n, 0) + 1
	}
	t.slots = make([]biasSlot, size)
	return t
}

// gather writes the prepared bias weights of count row to p, its vectors
// grown to the row's length, computing the pairs the table lacks.
func (t *biasTable) gather(p *rng.Prepared, row []uint32) {
	n := len(row)
	p.W, p.Inv, p.Margin = grow(p.W, n), grow(p.Inv, n), grow(p.Margin, n)
	w, inv, margin, off := p.W[:n], p.Inv[:n], p.Margin[:n], t.off[:n+1]
	for k, c := range row {
		if uint(c) >= uint(off[k+1]-off[k]) {
			w[k], inv[k], margin[k] = t.weight(k, c)
			continue
		}
		sl := &t.slots[off[k]+int(c)]
		if !sl.ready.Load() {
			t.fill(sl, k, c)
		}
		w[k], inv[k], margin[k] = sl.w, sl.inv, sl.margin
	}
}

// fill computes slot sl, pair (k, c), unless another visit did first.
func (t *biasTable) fill(sl *biasSlot, k int, c uint32) {
	t.mu.Lock()
	if !sl.ready.Load() {
		sl.w, sl.inv, sl.margin = t.weight(k, c)
		sl.ready.Store(true)
	}
	t.mu.Unlock()
}

// weight is pair (k, c)'s bias weight with what the sampler derives from it.
func (t *biasTable) weight(k int, c uint32) (w, inv, margin float64) {
	w = t.ev.BiasWeight(float64(c) / t.den[k])
	inv, margin = rng.PrepareWeight(w)
	return w, inv, margin
}
