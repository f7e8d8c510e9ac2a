package hpo

import (
	"reflect"
	"testing"

	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

func TestFedPopDeterministic(t *testing.T) {
	run := func(seed uint64) *History {
		o := newTestOracle(0.05)
		return FedPop{}.Run(o, DefaultSpace(), smallSettings(), rng.New(seed))
	}
	if !reflect.DeepEqual(run(4), run(4)) {
		t.Fatal("same seed produced different histories")
	}
	if reflect.DeepEqual(run(4), run(5)) {
		t.Fatal("different seeds produced identical histories")
	}
}

func TestFedPopRespectsBudget(t *testing.T) {
	o := newTestOracle(0.05)
	s := smallSettings()
	h := FedPop{}.Run(o, DefaultSpace(), s, rng.New(2))
	if got := h.RoundsConsumed(); got > s.Budget.TotalRounds {
		t.Fatalf("consumed %d rounds, budget %d", got, s.Budget.TotalRounds)
	}
	if h.Len() == 0 {
		t.Fatal("no observations")
	}
}

func TestFedPopReachesFullFidelity(t *testing.T) {
	o := newTestOracle(0.05)
	s := smallSettings()
	s.Budget.TotalRounds = 100 * s.Budget.MaxPerConfig // ample budget
	h := FedPop{}.Run(o, DefaultSpace(), s, rng.New(3))
	rec, ok := h.Recommend()
	if !ok {
		t.Fatal("no recommendation")
	}
	if rec.Rounds != o.maxRounds {
		t.Fatalf("recommendation at %d rounds, want max %d", rec.Rounds, o.maxRounds)
	}
}

func TestFedPopPoolMembership(t *testing.T) {
	o := newTestOracle(0.05)
	o.pool = DefaultSpace().SampleN(24, rng.New(11))
	member := map[[2]float64]bool{}
	for _, c := range o.pool {
		member[[2]float64{c.ServerLR, c.ClientLR}] = true
	}
	h := FedPop{Population: 6}.Run(o, DefaultSpace(), smallSettings(), rng.New(6))
	for i, obs := range h.All() {
		if !member[[2]float64{obs.Config.ServerLR, obs.Config.ClientLR}] {
			t.Fatalf("observation %d config %+v is not a pool member", i, obs.Config)
		}
	}
}

func TestFedPopEvolvesPopulation(t *testing.T) {
	// With several generations the explore step must introduce configs
	// beyond the initial population.
	o := newTestOracle(0.05)
	s := smallSettings()
	s.Budget.TotalRounds = 100 * s.Budget.MaxPerConfig
	h := FedPop{Population: 8, R0: o.maxRounds / 27}.Run(o, DefaultSpace(), s, rng.New(9))
	distinct := map[float64]bool{}
	for _, obs := range h.All() {
		distinct[obs.Config.ServerLR] = true
	}
	if len(distinct) <= 8 {
		t.Fatalf("only %d distinct configs observed; explore step appears inert", len(distinct))
	}
}

func TestNearestConfigExactAndTies(t *testing.T) {
	space := DefaultSpace()
	pool := space.SampleN(12, rng.New(21))
	for i, c := range pool {
		if got := NearestConfig(pool, c, space); pool[got] != c {
			t.Fatalf("pool member %d snapped to %d (different config)", i, got)
		}
	}
	// Duplicate members: ties break to the lowest index.
	pool2 := append(append([]fl.HParams(nil), pool...), pool[3])
	if got := NearestConfig(pool2, pool[3], space); got != 3 {
		t.Fatalf("tie broke to %d, want 3", got)
	}
}
