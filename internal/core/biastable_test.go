package core

import (
	"math"
	"sync"
	"testing"

	"noisyeval/internal/eval"
	"noisyeval/internal/rng"
)

// TestBiasTableSharedByRowWorkers holds the biased row kernel, fed from the
// oracle's (client, wrong-count) table, to the one-shot Evaluate that
// computes every weight per call: every cohort of every row, with four
// workers sharing the oracle's table and filling it concurrently, each from
// its own scratch, as the block scheduler's row workers do. The tables are
// the oracle's own, one whose spans are all empty, as a partition above
// maxBiasSlots gets, where every visit computes its row, and one with a
// span cut short. make race runs it with -count=10.
func TestBiasTableSharedByRowWorkers(t *testing.T) {
	b, _ := tinyBank(t)
	o, err := NewBankOracle(b, 0, Noise{SampleCount: 3, Bias: 1.5}.Scheme(), 11)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	type row struct{ ci, ri int }
	var rows []row
	want := map[row][]eval.Result{}
	for ci := range b.Configs {
		for ri := range b.Rounds {
			r := row{ci, ri}
			rows = append(rows, r)
			rates := ratesInto(nil, b.Errs.Row(0, ci, ri), o.den)
			for _, seed := range seeds {
				want[r] = append(want[r], o.evaluator.Evaluate(rates, rng.New(seed)))
			}
		}
	}
	// short's first client has a span too short for a count its rows hold,
	// as a count above the client's examples would: that pair is computed
	// per visit and must not read the next client's slots.
	c0 := -1
	for ci := range b.Configs {
		if c := int(b.Errs.Row(0, ci, 0)[0]); c > c0 {
			c0 = c
		}
	}
	if c0 < 1 {
		t.Fatal("client 0 counts no wrong example in any config's first row")
	}
	short := newBiasTable(o.evaluator, b.ExampleCounts[0], o.den)
	short.off[1] = short.off[0] + c0
	full := o.bias
	for _, table := range []*biasTable{{ev: o.evaluator, den: o.den, off: make([]int, len(o.den)+1)}, short, full} {
		o.bias = table
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var ms eval.MultiScratch
				for i := range rows {
					r := rows[(i*(2*w+1)+w)%len(rows)]
					got := o.EvaluateRows(r.ci, r.ri, seeds, &ms)
					for c, g := range got {
						if w := want[r][c]; math.Float64bits(g.Observed) != math.Float64bits(w.Observed) ||
							math.Float64bits(g.Sampled) != math.Float64bits(w.Sampled) {
							t.Errorf("%d slots, row %v cohort %d: %v, one-shot Evaluate %v", len(table.slots), r, c, g, w)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
	// Every filled slot of the oracle's table holds its pair's weight.
	filled := 0
	for k, n := range b.ExampleCounts[0] {
		if o.bias.off[k+1]-o.bias.off[k] != n+1 {
			t.Fatalf("client %d: span of %d slots, want %d", k, o.bias.off[k+1]-o.bias.off[k], n+1)
		}
		for c := 0; c <= n; c++ {
			sl := &o.bias.slots[o.bias.off[k]+c]
			if !sl.ready.Load() {
				continue
			}
			filled++
			if w := o.evaluator.BiasWeight(float64(c) / o.den[k]); math.Float64bits(sl.w) != math.Float64bits(w) {
				t.Errorf("client %d count %d: weight %v, want %v", k, c, sl.w, w)
			}
		}
	}
	if filled == 0 {
		t.Error("no slot filled")
	}
}
