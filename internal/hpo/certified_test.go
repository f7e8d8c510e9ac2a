package hpo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// proposeRegimes are the observation sets the bank-mode proposal is pinned
// on: what a run produces (random errors), what breaks an argmax that is not
// the old loop (errors all equal, so the stable sort alone splits ℓ from g;
// NaN errors; sides whose centres collapse to one point, so the bandwidth
// sits on its lower clamp) and a pool whose rows repeat at different indices,
// where the first draw must win the tie.
var proposeRegimes = []struct {
	name    string
	dupPool bool
	obs     func(g *rng.RNG, n, pool int) []parzenObs
}{
	{"random", false, func(g *rng.RNG, n, pool int) []parzenObs {
		obs := make([]parzenObs, n)
		for i := range obs {
			obs[i] = parzenObs{row: g.IntN(pool), err: g.Float64()}
		}
		return obs
	}},
	{"equal", false, func(g *rng.RNG, n, pool int) []parzenObs {
		obs := make([]parzenObs, n)
		for i := range obs {
			obs[i] = parzenObs{row: g.IntN(pool), err: 0.5}
		}
		return obs
	}},
	{"nan", false, func(g *rng.RNG, n, pool int) []parzenObs {
		obs := make([]parzenObs, n)
		for i := range obs {
			obs[i] = parzenObs{row: g.IntN(pool), err: g.Float64()}
			if i%3 == 1 {
				obs[i].err = math.NaN()
			}
		}
		return obs
	}},
	{"onecentre", false, func(g *rng.RNG, n, pool int) []parzenObs {
		// Every observation but the first is the same pool member.
		obs := make([]parzenObs, n)
		r0, r1 := g.IntN(pool), g.IntN(pool)
		for i := range obs {
			obs[i] = parzenObs{row: r0, err: g.Float64()}
		}
		obs[0].row = r1
		return obs
	}},
	{"duppool", true, func(g *rng.RNG, n, pool int) []parzenObs {
		obs := make([]parzenObs, n)
		for i := range obs {
			obs[i] = parzenObs{row: g.IntN(pool), err: g.Float64()}
		}
		return obs
	}},
}

// proposeGoldenNs are the pinned observation counts: every size from the
// first model proposal (NStartup = 4) to 15, where nGood steps from 1 to 3,
// and three larger sets.
var proposeGoldenNs = []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 27, 60, 120}

// proposePool samples a pool of n configs; with dup, its rows repeat with
// period n/4, so equal feature rows sit at different indices.
func proposePool(space Space, n int, dup bool, g *rng.RNG) []fl.HParams {
	pool := space.SampleN(n, g)
	if dup {
		for i := range pool {
			pool[i] = pool[i%(n/4)]
		}
	}
	return pool
}

// TestProposeGolden pins the bank-mode proposal — the pool index chosen and
// the position of the stream afterwards — to a hash recorded on the loop that
// scored every drawn candidate with logDensity. TPE drives the model
// directly (fit, then propose); BOHB drives it through bohbState, whose
// random and fallback branches and rung-triggered refits are in the hash too.
// TestProposeMatchesReference compares whole runs; this pins single
// proposals on observation sets no run of its produces.
func TestProposeGolden(t *testing.T) {
	const want = "ed213fa5c08ba4495c6b380a9d5e88468bee099ef834563456f37b59ada30dad"
	space := DefaultSpace()
	tpe := TPE{}.normalize()
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for _, poolN := range []int{16, 48, 64, 128} {
		for ri, regime := range proposeRegimes {
			for seed := uint64(1); seed <= 8; seed++ {
				g := rng.New(seed).Splitf("golden-%d-%d", poolN, ri)
				o := newTestOracle(0)
				o.pool = proposePool(space, poolN, regime.dupPool, g.Split("pool"))
				for _, n := range proposeGoldenNs {
					obs := regime.obs(g.Splitf("obs-%d", n), n, poolN)

					m := newParzenModel(tpe, o, space)
					m.fit(obs)
					draw := g.Splitf("tpe-%d", n)
					for rep := 0; rep < 3; rep++ {
						_, row := m.propose(draw)
						put(uint64(row))
					}
					put(draw.Uint64())

					st := &bohbState{cfg: BOHB{RandomFraction: 1.0 / 3, MinPoints: 6},
						model: newParzenModel(tpe, o, space), top: -1, gSub: rng.New(0)}
					alive, errs := make([]int, n), make([]float64, n)
					for i, ob := range obs {
						st.rows = append(st.rows, ob.row)
						alive[i], errs[i] = i, ob.err
					}
					bohbPropose := func(label string, reps int) {
						for rep := 0; rep < reps; rep++ {
							st.propose(g.Splitf("%s-%d-%d", label, n, rep))
							put(uint64(st.rows[len(st.rows)-1]))
							put(st.gSub.Uint64())
						}
					}
					st.observe(5, alive, errs)
					bohbPropose("bohb", 3)
					st.observe(15, alive[:n/2], errs[n/2:]) // a higher fidelity: refit once it holds MinPoints
					bohbPropose("bohb-15", 2)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("propose golden = %s, want %s", got, want)
	}
}
