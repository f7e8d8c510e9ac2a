package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"noisyeval/internal/eval"
	"noisyeval/internal/fl"
	"noisyeval/internal/hpo"
	"noisyeval/internal/rng"
)

// blockWorkersOverride forces the row-evaluation worker count (tests drive
// the scheduler at high parallelism regardless of GOMAXPROCS). Zero means
// use GOMAXPROCS.
var blockWorkersOverride int

// blockOracle is the oracle the block scheduler hands every trial's method:
// Evaluate and the static facts come from the shared base BankOracle (the
// EvalStream proxy intercepts Evaluate, so it is never called here), while
// TrueError caches the full-pool error per arena row. TrueError is a pure
// function of the row — FullError over read-only bank data — so one cached
// value serves every trial bit-identically. All TrueError calls happen
// during the scheduler's serial resume phase, so the cache and the cur memo
// need no locking.
type blockOracle struct {
	*BankOracle
	nCkpt   int
	trueErr []float64
	filled  []bool
	cur     *trialState // the trial the scheduler is currently resuming
}

func (b *blockOracle) TrueError(cfg fl.HParams, rounds int) float64 {
	ts := b.cur
	// Observe loops walk their just-answered batch in ask order, so the row
	// the scheduler resolved for ask teCur is usually the row being asked
	// about; the guard makes the shortcut safe even when it is not (a row is
	// a pure function of (cfg, rounds), and both are compared).
	if ts != nil {
		if lb := ts.lastBatch; lb != nil && ts.teCur < len(ts.rows) &&
			rounds == lb.RoundsAt(ts.teCur) && cfg == lb.Configs[ts.teCur] {
			k := int(ts.rows[ts.teCur])
			ts.teCur++
			return b.rowTrueError(k)
		}
	}
	var ci int
	if ts != nil && ts.hasLast && cfg == ts.lastCfg {
		ci = ts.lastCI // methods usually report the config they just asked about
	} else {
		var err error
		if ci, err = b.bank.ConfigIndex(cfg); err != nil {
			panic(err)
		}
	}
	return b.rowTrueError(ci*b.nCkpt + b.bank.CheckpointIndex(rounds))
}

func (b *blockOracle) rowTrueError(k int) float64 {
	if !b.filled[k] {
		buf := b.rates(k/b.nCkpt, k%b.nCkpt)
		b.trueErr[k] = b.full.FullError(*buf)
		rateRows.Put(buf)
		b.filled[k] = true
	}
	return b.trueErr[k]
}

// trialState is the scheduler's per-trial bookkeeping.
type trialState struct {
	stream  *hpo.EvalStream
	saltPfx rng.FNV64a // evalSeedPrefix("trial-<i>")

	// Row-resolution memo: configs repeat across a trial's consecutive asks
	// (rung ladders) and fidelities repeat almost always.
	lastCfg    fl.HParams
	lastCI     int
	lastRounds int
	lastRI     int
	hasLast    bool

	// lastBatch/rows keep the most recent batch's scheduler-resolved rows so
	// TrueError needs no config lookup while the method's observe loop walks
	// the batch back in ask order (teCur is the walk cursor).
	lastBatch *hpo.EvalBatch
	rows      []int32
	teCur     int
}

// waveAsk is one pending evaluation ask: which arena row it needs, the
// cohort seed, and the EvalBatch.Out element the answer goes to.
type waveAsk struct {
	row  int32
	seed uint64
	out  *float64
}

// blockScratch is one row-evaluation worker's private state.
type blockScratch struct {
	ms    eval.MultiScratch
	seeds []uint64
	asks  []int32
}

// RunTrialsProgress is RunTrials with per-trial progress reporting: onTrial
// (when non-nil) is invoked once per finished trial — in completion order,
// serialized, so the callback needs no synchronization of its own — with
// that trial's result and the number of trials completed so far. Progress
// observation never perturbs results.
//
// This is the block scheduler (DESIGN.md §14). All n trials run concurrently
// as EvalStream coroutines on the scheduler's goroutine; each wave collects
// every live trial's pending EvalBatch, groups the asks by (config,
// checkpoint) arena row, evaluates each row once for all cohorts touching it
// (BankOracle.EvaluateRows), and resumes the trials with their answers.
//
// Results are bit-identical to running each trial alone on
// oracle.WithTrial(i): a trial's method runs against the same RNG stream
// (g.Splitf("trial-i")), every ask is answered with exactly the value
// Evaluate would produce — the cohort seed is the same pure function of
// (seed, trial salt, evalID) — and TrueError returns the same FullError
// bits, so no method can observe that it was interleaved.
func (t Tuner) RunTrialsProgress(oracle *BankOracle, n int, g *rng.RNG, onTrial func(res TrialResult, completed int)) []TrialResult {
	results := make([]TrialResult, n)
	if n == 0 {
		return results
	}
	m := metricsInstruments()
	start := time.Now()

	bank := oracle.bank
	nCkpt := len(bank.Rounds)
	nRows := len(bank.Configs) * nCkpt
	bo := &blockOracle{
		BankOracle: oracle,
		nCkpt:      nCkpt,
		trueErr:    make([]float64, nRows),
		filled:     make([]bool, nRows),
	}

	trials := make([]trialState, n)
	defer func() {
		// Unwind any still-suspended method coroutines if a method panic (or
		// a bad config) aborts the scheduler mid-run.
		for i := range trials {
			if st := trials[i].stream; st != nil {
				st.Close()
			}
		}
	}()
	const rowsCap = 16 // per-trial batch-row memo capacity (appends past it just reallocate)
	rowsBacking := make([]int32, n*rowsCap)
	for i := range trials {
		tg := rng.New(0)
		g.SplitIntInto(tg, "trial-", i) // the g.Splitf("trial-%d", i) stream
		trials[i].stream = hpo.NewEvalStream(t.Method, bo, t.Space, t.Settings, tg)
		trials[i].saltPfx = oracle.evalSeedPrefix(trialSalts.ID(i))
		trials[i].lastRounds = -1
		trials[i].rows = rowsBacking[i*rowsCap : i*rowsCap : (i+1)*rowsCap]
	}

	completed := 0
	finalize := func(i int) {
		h := trials[i].stream.History()
		trials[i].stream = nil
		res := TrialResult{Trial: i, History: h, FinalTrue: 1}
		if rec, ok := h.Recommend(); ok {
			res.FinalTrue = rec.True
		}
		results[i] = res
		m.TrialsTotal.Inc()
		completed++
		if onTrial != nil {
			// The scheduler is single-goroutine, so callbacks are serialized
			// and completion-ordered by construction.
			onTrial(res, completed)
		}
	}

	asks := make([]waveAsk, 0, 2*n)
	fill := &asks // advance appends the resumed trial's new asks here

	rowOf := func(ts *trialState, cfg fl.HParams, rounds int) int32 {
		if !ts.hasLast || cfg != ts.lastCfg {
			ci, err := bank.ConfigIndex(cfg)
			if err != nil {
				panic(err)
			}
			ts.lastCfg, ts.lastCI, ts.hasLast = cfg, ci, true
		}
		if rounds != ts.lastRounds {
			ts.lastRounds, ts.lastRI = rounds, bank.CheckpointIndex(rounds)
		}
		return int32(ts.lastCI*nCkpt + ts.lastRI)
	}

	// advance resumes trial i — its previous batch's Out slots hold the
	// answers — until its next batch of asks, appending one wave entry per
	// ask to *fill. It reports false when the trial finished instead.
	advance := func(i int) bool {
		ts := &trials[i]
		bo.cur = ts
		b, ok := ts.stream.Next()
		if !ok {
			finalize(i)
			return false
		}
		ts.lastBatch, ts.rows, ts.teCur = b, ts.rows[:0], 0
		if *fill == nil {
			// The second buffer, made when a second wave turns out to exist (RS
			// has none). The first wave is a run's widest — Hyperband opens on
			// its largest bracket — so its size serves every later one.
			*fill = make([]waveAsk, 0, len(asks))
		}
		for j := range b.Configs {
			row := rowOf(ts, b.Configs[j], b.RoundsAt(j))
			ts.rows = append(ts.rows, row)
			*fill = append(*fill, waveAsk{
				row:  row,
				seed: ts.saltPfx.String(b.EvalIDAt(j)).Sum(),
				out:  &b.Out[j],
			})
		}
		return true
	}

	live := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if advance(i) {
			live = append(live, i)
		}
		if i == 0 {
			// Every trial runs the same method, so the first trial's opening
			// batch (81 asks under Hyperband, 1 under RS) sizes the wave.
			asks = slices.Grow(asks, (n-1)*len(asks))
		}
	}

	// Row-group linked lists over the wave's asks, keyed ci*nCkpt+ri. head
	// entries are reset via the touched list after each wave, so grouping is
	// O(wave), not O(rows).
	head := make([]int32, nRows)
	for i := range head {
		head[i] = -1
	}
	var nextAsks []waveAsk // made by advance, on the first ask of a second wave
	nextAsk := make([]int32, 0, len(asks))
	touched := make([]int32, 0, n)

	workers := runtime.GOMAXPROCS(0)
	if blockWorkersOverride > 0 {
		workers = blockWorkersOverride
	}
	scratches := make([]blockScratch, workers)

	// evalGroup walks one row group, evaluates the row for all its cohorts
	// in one sweep, and routes the released values back to the asking
	// trials. Cohort order within a group is irrelevant: each cohort's value
	// depends only on (row, seed).
	evalGroup := func(k int32, ws *blockScratch) {
		ci, ri := int(k)/nCkpt, int(k)%nCkpt
		ws.seeds, ws.asks = ws.seeds[:0], ws.asks[:0]
		for a := head[k]; a >= 0; a = nextAsk[a] {
			ws.asks = append(ws.asks, a)
			ws.seeds = append(ws.seeds, asks[a].seed)
		}
		rs := oracle.EvaluateRows(ci, ri, ws.seeds, &ws.ms)
		for j, a := range ws.asks {
			*asks[a].out = rs[j].Observed
		}
	}

	for len(live) > 0 {
		// Group this wave's asks by arena row.
		touched = touched[:0]
		nextAsk = nextAsk[:0]
		for a := range asks {
			k := asks[a].row
			if head[k] < 0 {
				touched = append(touched, k)
			}
			nextAsk = append(nextAsk, head[k])
			head[k] = int32(a)
		}

		// Evaluate each touched row once for all of its cohorts. Groups are
		// independent (disjoint answer slots, read-only bank rows), so they
		// fan out across workers with per-worker scratch.
		if w := min(workers, len(touched)); w > 1 {
			var cursor atomic.Int64
			var wg sync.WaitGroup
			for wi := 0; wi < w; wi++ {
				wg.Add(1)
				go func(ws *blockScratch) {
					defer wg.Done()
					for {
						j := cursor.Add(1) - 1
						if j >= int64(len(touched)) {
							return
						}
						evalGroup(touched[j], ws)
					}
				}(&scratches[wi])
			}
			wg.Wait()
		} else {
			for _, k := range touched {
				evalGroup(k, &scratches[0])
			}
		}
		for _, k := range touched {
			head[k] = -1
		}

		// Resume every trial with its answers; survivors form the next wave.
		// New asks land in nextAsks so the grouping above never walks a
		// half-rebuilt slice. Filtering live in place is safe: the write
		// index never passes the read index.
		nextAsks = nextAsks[:0]
		fill = &nextAsks
		nextLive := live[:0]
		for _, i := range live {
			if advance(i) {
				nextLive = append(nextLive, i)
			}
		}
		live = nextLive
		asks, nextAsks = nextAsks, asks
		fill = &asks
	}

	// TrialSeconds: trials interleave on one goroutine, so per-trial wall
	// time is not observable; record the batch mean so the histogram's count
	// matches TrialsTotal and its sum stays the batch wall time.
	perTrial := time.Since(start).Seconds() / float64(n)
	for i := 0; i < n; i++ {
		m.TrialSeconds.Observe(perTrial)
	}
	return results
}
