package hpo

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// TestSplitLabelsMatchSplitf pins, label for label, every stream the
// RS/TPE/HB/BOHB loops derive with the in-place split helpers to the
// fmt-built Split/Splitf form they replaced: same seed, same path, same
// draws, same grandchildren. A label that drifts by one byte changes every
// recorded history.
func TestSplitLabelsMatchSplitf(t *testing.T) {
	same := func(ctx string, want, got *rng.RNG) {
		t.Helper()
		if want.Seed() != got.Seed() || want.Path() != got.Path() {
			t.Fatalf("%s: stream (%d, %q), want (%d, %q)", ctx, got.Seed(), got.Path(), want.Seed(), want.Path())
		}
		if w, g := want.Split("sub").Uint64(), got.Split("sub").Uint64(); w != g {
			t.Fatalf("%s: grandchild draws differ", ctx)
		}
		for i := 0; i < 8; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("%s: draw %d differs", ctx, i)
			}
		}
	}
	for _, run := range []*rng.RNG{rng.New(1), rng.New(9).Split("fedtune").Split("trial-3")} {
		sub, sub2 := rng.New(0), rng.New(0)
		for _, i := range []int{0, 1, 9, 10, 80, 127} {
			for _, prefix := range []string{"startup-", "propose-", "dp-", "cfg-", "bracket-"} {
				run.SplitIntInto(sub, prefix, i)
				same(fmt.Sprintf("%s%d", prefix, i), run.Splitf(prefix+"%d", i), sub)
			}
			for bi := 0; bi < 5; bi++ {
				// A bracket's i-th proposal stream and BOHB's three branches
				// under it (the parent is itself a reseeded scratch stream).
				for _, branch := range []string{"random", "fallback", "tpe"} {
					run.SplitInt2Into(sub, "bracket-", bi, "-cfg-", i)
					sub.SplitInto(sub2, branch)
					same(fmt.Sprintf("bracket-%d-cfg-%d/%s", bi, i, branch),
						run.Splitf("bracket-%d-cfg-%d", bi, i).Split(branch), sub2)
				}
				run.SplitInt2Into(sub, "bracket-", bi, "-cfg-", i)
				same(fmt.Sprintf("bracket-%d-cfg-%d", bi, i), run.Splitf("bracket-%d-cfg-%d", bi, i), sub)

				// The rung-noise stream under a bracket stream (rung = i).
				for _, label := range []string{"sha", fmt.Sprintf("hb-bracket-%d", bi)} {
					run.SplitIntInto(sub, "bracket-", bi)
					sub.SplitIntInto(sub2, label+"-noise-", i)
					same(fmt.Sprintf("bracket-%d/%s-noise-%d", bi, label, i),
						run.Splitf("bracket-%d", bi).Splitf("%s-noise-%d", label, i), sub2)
				}
			}
		}
	}
}

// refScores returns ℓ−g of every pool member under the reference model of
// obs, built exactly as ReferenceTPE.propose builds it.
func refScores(tpe TPE, obs []refScoredConfig, space Space, pool []fl.HParams) []float64 {
	sorted := append([]refScoredConfig(nil), obs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].err < sorted[j].err })
	nGood := int(tpe.Gamma * float64(len(sorted)))
	if nGood < 1 {
		nGood = 1
	}
	good := newRefParzen(space, refConfigsOf(sorted[:nGood]))
	bad := newRefParzen(space, refConfigsOf(sorted[nGood:]))
	out := make([]float64, len(pool))
	for i, c := range pool {
		out[i] = good.logDensity(c) - bad.logDensity(c)
	}
	return out
}

// TestProposeMatchesReferenceMemo is the cache-invalidation half of the
// engine's contract: between rung reports the fitted model and its two memos
// (exact scores, approximate ratios) are reused; a report that changes the
// selected observation set (same fidelity grown, or a higher fidelity
// becoming adequate) must refit and drop every memoised value. The candidate
// draws are identical before and after each report, so an engine serving
// stale values returns the old argmax and fails against the reference. A
// proposal the approximation decides memoises no exact score at all, so the
// count that must be positive is the ratios'; every exact score present must
// still be the reference's to the bit, and every ratio within ratioErr of
// the exponential of the reference's.
func TestProposeMatchesReferenceMemo(t *testing.T) {
	space := DefaultSpace()
	o := newTestOracle(0)
	o.pool = space.SampleN(32, rng.New(21))
	tpe := TPE{}.normalize()
	cfg := BOHB{RandomFraction: 1e-300, MinPoints: 6} // never the random branch
	st := &bohbState{cfg: cfg, model: newParzenModel(tpe, o, space), top: -1, gSub: rng.New(0)}
	ref := &refBohbState{cfg: cfg, tpe: ReferenceTPE(tpe), byFidelity: map[int][]refScoredConfig{}}

	// report feeds one rung to both states: the bracket's configs are pool
	// members first..first+n-1, alive the positions that reached the rung.
	var bracket []int
	startBracket := func(first, n int) {
		bracket = bracket[:0]
		for i := 0; i < n; i++ {
			bracket = append(bracket, first+i)
		}
		st.rows = append(st.rows[:0], bracket...)
	}
	report := func(fidelity int, alive []int, errs []float64) {
		cfgs := make([]fl.HParams, len(alive))
		for i, pos := range alive {
			cfgs[i] = o.pool[bracket[pos]]
		}
		st.observe(fidelity, alive, errs)
		ref.observe(fidelity, cfgs, errs)
	}
	// propose asks both for the proposal of the same stream and checks the
	// engine's memo against the reference model of the current set.
	propose := func(step string) fl.HParams {
		t.Helper()
		got := st.propose(rng.New(7).Split("cfg"))
		want := ref.propose(o, space, rng.New(7).Split("cfg"))
		if got != want {
			t.Fatalf("%s: engine proposed %+v, reference %+v", step, got, want)
		}
		scores := refScores(tpe, ref.modelObservations(), space, o.pool)
		exact, ratios := 0, 0
		for c, s := range scores {
			e := st.model.memo[c]
			if e.scoreStamp == st.model.gen {
				exact++
				if math.Float64bits(e.score) != math.Float64bits(s) {
					t.Fatalf("%s: memoised score of pool member %d is %v, reference model gives %v", step, c, e.score, s)
				}
			}
			if e.ratioStamp == st.model.gen {
				ratios++
				if math.Abs(e.ratio/math.Exp(s)-1) > ratioErr {
					t.Fatalf("%s: approximate ratio of pool member %d is %v, reference model gives exp(%v) = %v", step, c, e.ratio, s, math.Exp(s))
				}
			}
		}
		if ratios == 0 || ratios > tpe.NCandidates || exact > ratios {
			t.Fatalf("%s: %d memoised ratios and %d exact scores for %d candidate draws", step, ratios, exact, tpe.NCandidates)
		}
		return got
	}
	all := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	ramp := func(n int, from, step float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = from + step*float64(i)
		}
		return out
	}

	if st.propose(rng.New(7).Split("cfg")) != ref.propose(o, space, rng.New(7).Split("cfg")) || st.model.gen != 0 {
		t.Fatal("with no adequate fidelity both must fall back to the same random draw, without fitting")
	}

	startBracket(0, 12)
	report(5, all(12), ramp(12, 0.1, 0.05)) // low pool indices look good
	first := propose("first fit")
	gen := st.model.gen
	if gen != 1 {
		t.Fatalf("first model proposal fitted %d times", gen)
	}

	if propose("no report") != first || st.model.gen != gen {
		t.Fatal("a proposal with no rung report in between must reuse the fitted model")
	}

	report(15, []int{0, 1, 2, 3}, ramp(4, 0.2, 0.01)) // 4 < MinPoints: fidelity 15 not adequate yet
	if propose("inadequate higher fidelity") != first || st.model.gen != gen {
		t.Fatal("a report that leaves the selected observation set unchanged must not refit")
	}

	startBracket(12, 12)
	report(5, all(12), ramp(12, 0.05, -0.004)) // the new bracket's high indices look best
	grown := propose("selected fidelity grew")
	if st.model.gen != gen+1 {
		t.Fatalf("growing the selected set refitted %d times, want 1", st.model.gen-gen)
	}
	if grown == first {
		t.Fatal("test has no teeth: the grown set proposes the same config, so a stale memo would pass")
	}

	report(15, []int{4, 5, 6, 7}, ramp(4, 0.3, -0.02)) // fidelity 15 reaches 8 ≥ MinPoints
	higher := propose("higher fidelity became adequate")
	if st.model.gen != gen+2 || st.fitLevel != st.top || st.levels[st.top].fidelity != 15 {
		t.Fatalf("model not refitted on fidelity 15 (gen %d, level %d)", st.model.gen, st.fitLevel)
	}
	if higher == grown {
		t.Fatal("test has no teeth: fidelity 15's set proposes the same config as fidelity 5's")
	}

	// One gen serves both memos: force an exact score beside the ratios, refit,
	// and neither may survive.
	m := st.model
	m.memo[0].scoreStamp = m.gen
	m.fit(st.levels[st.top].obs)
	for c, e := range m.memo {
		if e.scoreStamp == m.gen || e.ratioStamp == m.gen {
			t.Fatalf("pool member %d still memoised after a refit", c)
		}
	}
}
