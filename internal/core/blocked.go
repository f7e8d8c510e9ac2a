package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"noisyeval/internal/eval"
	"noisyeval/internal/hpo"
	"noisyeval/internal/rng"
)

// blockWorkersOverride forces the row-evaluation worker count (tests drive
// the scheduler at high parallelism regardless of GOMAXPROCS). Zero means
// use GOMAXPROCS.
var blockWorkersOverride int

// blockOracle is the oracle the block scheduler hands every trial's method:
// everything comes from the shared base BankOracle (the EvalStream proxy
// intercepts evaluations, so they never reach it), except that true errors
// by pool index are cached per arena row. A true error is a pure function of
// the row — FullError over read-only bank data — so one cached value serves
// every trial bit-identically. The cache is read and filled only during the
// scheduler's serial resume phase, so it needs no locking.
type blockOracle struct {
	*BankOracle
	nCkpt   int
	trueErr []float64
	filled  []bool
}

// TrueErrorAt implements hpo.BatchOracle from the row cache.
func (b *blockOracle) TrueErrorAt(ci, rounds int) float64 {
	b.checkIndex(ci)
	return b.cachedTrueError(ci*b.nCkpt + b.bank.CheckpointIndex(rounds))
}

// cachedTrueError is the row cache's read of arena row k = ci*nCkpt + ri.
func (b *blockOracle) cachedTrueError(k int) float64 {
	if !b.filled[k] {
		b.trueErr[k] = b.rowTrueError(k/b.nCkpt, k%b.nCkpt)
		b.filled[k] = true
	}
	return b.trueErr[k]
}

// trialState is the scheduler's per-trial bookkeeping.
type trialState struct {
	stream   trialStream
	finished bool       // the method returned; the stream may park again
	saltPfx  rng.FNV64a // evalSeedPrefix("trial-<i>")

	// Checkpoint memo: fidelities repeat across a trial's consecutive asks
	// almost always.
	lastRounds int
	lastRI     int
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

// trialStream is one trial's coroutine together with the RNG its method
// draws from: both outlive the trial on the parked-stream free list, and the
// RNG is reseeded to the next trial's stream before each Start.
type trialStream struct {
	st *hpo.EvalStream
	g  *rng.RNG
}

// maxParkedStreams bounds the free list: enough for a 100-trial figure cell
// and a concurrent run or two. Streams beyond it are closed when their
// RunTrials returns, so an idle process holds at most this many parked
// coroutines.
const maxParkedStreams = 256

// parkedStreams is the process-wide free list of finished, Released trial
// streams. A parked stream references no oracle, bank, batch or History
// (hpo.EvalStream drops them when a run ends or is Released), so keeping it
// costs its coroutine's stack and nothing of any run.
var parkedStreams struct {
	mu   sync.Mutex
	list []trialStream
}

// takeStreams gives every trial a stream: parked ones first, new ones when
// the free list runs dry.
func takeStreams(trials []trialState) {
	parkedStreams.mu.Lock()
	list := parkedStreams.list
	k := min(len(trials), len(list))
	for i, ps := range list[len(list)-k:] {
		trials[i].stream = ps
	}
	clear(list[len(list)-k:])
	parkedStreams.list = list[:len(list)-k]
	parkedStreams.mu.Unlock()
	for i := k; i < len(trials); i++ {
		trials[i].stream = trialStream{st: hpo.NewReusableEvalStream(), g: rng.New(0)}
	}
}

// endStreams disposes of a RunTrials call's streams: each trial whose method
// returned parks its stream while the free list has room; every other stream
// — a method that panicked, a trial abandoned when another trial's panic
// aborted the scheduler, overflow past the bound — is closed.
func endStreams(trials []trialState) {
	for i := range trials {
		if trials[i].finished {
			trials[i].stream.st.Release()
		}
	}
	parkedStreams.mu.Lock()
	for i := range trials {
		ts := &trials[i]
		if ts.finished && len(parkedStreams.list) < maxParkedStreams {
			parkedStreams.list = append(parkedStreams.list, ts.stream)
			ts.stream = trialStream{}
		}
	}
	parkedStreams.mu.Unlock()
	for i := range trials {
		if st := trials[i].stream.st; st != nil {
			st.Close()
			trials[i].stream = trialStream{}
		}
	}
}

// blockBuffers are RunTrialsProgress's per-call buffers, recycled through
// blockPool across calls. Between calls every head entry is -1 (each wave
// resets what it touched) and trials holds no pointers.
type blockBuffers struct {
	trials    []trialState
	asks      []waveAsk
	nextAsks  []waveAsk
	nextAsk   []int32
	touched   []int32
	head      []int32
	live      []int
	scratches []blockScratch
	trueErr   []float64
	filled    []bool
}

var blockPool = sync.Pool{New: func() any { return new(blockBuffers) }}

// grow returns b with length n, reallocating only on growth.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
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
// (seed, trial salt, evalID) — and each ask's true error is the FullError
// bits TrueError returns, so no method can observe that it was interleaved.
// Asks name configs by pool index, so an ask's arena row is arithmetic.
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
	buf := blockPool.Get().(*blockBuffers)
	buf.trueErr = grow(buf.trueErr, nRows)
	buf.filled = grow(buf.filled, nRows)
	clear(buf.filled)
	bo := &blockOracle{
		BankOracle: oracle,
		nCkpt:      nCkpt,
		trueErr:    buf.trueErr,
		filled:     buf.filled,
	}

	trials := grow(buf.trials, n)
	takeStreams(trials)
	done := false
	defer func() {
		// Park the streams of finished trials and close the rest — also when
		// a method panic (or a bad config) aborts the scheduler mid-run. The
		// buffers go back to the pool only after a whole run: an aborted
		// wave may leave head entries set.
		endStreams(trials)
		if done {
			clear(trials)
			blockPool.Put(buf)
		}
	}()
	for i := range trials {
		ts := &trials[i]
		g.SplitIntInto(ts.stream.g, "trial-", i) // the g.Splitf("trial-%d", i) stream
		ts.stream.st.Start(t.Method, bo, t.Space, t.Settings, ts.stream.g)
		ts.saltPfx = oracle.evalSeedPrefix(trialSalts.ID(i))
		ts.lastRounds = -1
	}

	completed := 0
	finalize := func(i int) {
		h := trials[i].stream.st.History()
		trials[i].finished = true
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

	asks := slices.Grow(buf.asks[:0], 2*n)
	fill := &asks // advance appends the resumed trial's new asks here

	// advance resumes trial i — its previous batch's Out slots hold the
	// answers — until its next batch of asks, appending one wave entry per
	// ask to *fill and writing each ask's true error, read from the row
	// cache. It reports false when the trial finished instead.
	advance := func(i int) bool {
		ts := &trials[i]
		b, ok := ts.stream.st.Next()
		if !ok {
			finalize(i)
			return false
		}
		if *fill == nil {
			// The second buffer, made when a second wave turns out to exist (RS
			// has none). The first wave is a run's widest — Hyperband opens on
			// its largest bracket — so its size serves every later one.
			*fill = make([]waveAsk, 0, len(asks))
		}
		for j, ci := range b.Indices {
			bo.checkIndex(ci)
			if rounds := b.RoundsAt(j); rounds != ts.lastRounds {
				ts.lastRounds, ts.lastRI = rounds, bank.CheckpointIndex(rounds)
			}
			row := int32(ci*nCkpt + ts.lastRI)
			b.True[j] = bo.cachedTrueError(int(row))
			*fill = append(*fill, waveAsk{
				row:  row,
				seed: ts.saltPfx.String(b.EvalIDAt(j)).Sum(),
				out:  &b.Out[j],
			})
		}
		return true
	}

	live := slices.Grow(buf.live[:0], n)
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
	// O(wave), not O(rows). Every entry of a pooled head is -1 already.
	if cap(buf.head) < nRows {
		buf.head = slices.Repeat([]int32{-1}, nRows)
	}
	head := buf.head[:nRows]
	nextAsks := buf.nextAsks[:0] // made by advance, on the first ask of a second wave, unless pooled
	nextAsk := slices.Grow(buf.nextAsk[:0], len(asks))
	touched := slices.Grow(buf.touched[:0], n)

	workers := runtime.GOMAXPROCS(0)
	if blockWorkersOverride > 0 {
		workers = blockWorkersOverride
	}
	if len(buf.scratches) < workers {
		buf.scratches = append(buf.scratches, make([]blockScratch, workers-len(buf.scratches))...)
	}
	scratches := buf.scratches

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
	buf.trials, buf.asks, buf.nextAsks, buf.nextAsk = trials, asks, nextAsks, nextAsk
	buf.touched, buf.live = touched, live
	done = true
	return results
}
