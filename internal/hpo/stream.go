package hpo

import (
	"fmt"
	"iter"

	"noisyeval/internal/fl"
	"noisyeval/internal/rng"
)

// errEvalStreamClosed is the sentinel panic that unwinds a method whose
// stream is closed before it finishes.
type errEvalStreamClosed struct{}

// EvalStream inverts a Method's control flow: m.Run executes as an iter.Pull
// coroutine against a proxy oracle whose evaluation calls suspend it. Next
// resumes the method until it wants evaluations answered and returns them as
// one EvalBatch — whatever the method handed EvaluateAll, or a one-element
// batch for a lone Evaluate; the consumer fills Out and calls Next again.
// Caller and method switch directly on the caller's goroutine (no scheduler
// wakeup), and filling every Out with the real oracle's Evaluate result
// reproduces m.Run(o, space, s, g) observation for observation.
// Non-evaluation oracle calls (TrueError, Pool, …) forward synchronously to
// o. This is what lets the block scheduler interleave hundreds of trials and
// noisyevald expose any registered Method as an ask/tell session (DESIGN.md
// §10, §14).
//
// A stream from NewEvalStream runs one method and its coroutine exits when
// the method returns. A stream from NewReusableEvalStream instead parks its
// coroutine at a loop head after each run, so Start can hand the same
// coroutine — and the stack it has already grown — the next run (DESIGN.md
// §14, "stream lifetime").
//
// A stream is used by one goroutine at a time; distinct streams are
// independent.
type EvalStream struct {
	next func() (*EvalBatch, bool)
	stop func()

	// The run the coroutine executes next: set by Start, dropped by the
	// coroutine when the method returns, so a parked stream references
	// neither the method nor the oracle.
	m     Method
	space Space
	s     Settings
	g     *rng.RNG
	proxy streamOracle

	hist     *History
	done     bool // no run in progress: the method returned, or the stream is closed
	closed   bool // the coroutine has exited (Close)
	reusable bool // park after a run instead of exiting

	// one is the scratch a lone Evaluate surfaces as.
	one oneAsk
}

// NewEvalStream prepares m.Run(o, space, s, g) for stepwise execution. The
// method does not start running until the first Next call.
func NewEvalStream(m Method, o Oracle, space Space, s Settings, g *rng.RNG) *EvalStream {
	st := newEvalStream()
	st.begin(m, o, space, s, g)
	return st
}

// NewReusableEvalStream returns an idle stream for a caller that runs many
// methods back to back: Start gives it a run, Next drives it, and once Next
// has reported completion and the caller has read History, Release readies
// it for the next Start. Its coroutine lives until Close, which the owner
// must call when it drops the stream.
func NewReusableEvalStream() *EvalStream {
	st := newEvalStream()
	st.reusable, st.done = true, true
	return st
}

func newEvalStream() *EvalStream {
	st := &EvalStream{}
	st.proxy.st = st
	st.next, st.stop = iter.Pull(st.loop)
	return st
}

// loop is the coroutine body: one method run per iteration, then a park —
// yield(nil), which Next reads as completion — until Start resumes it or
// Close makes the yield report false.
func (st *EvalStream) loop(yield func(*EvalBatch) bool) {
	defer func() {
		// Close unwinds a suspended method with the sentinel; swallow it so
		// stop() returns cleanly. Genuine method panics propagate to
		// whichever Next/Close call resumed the coroutine, exactly as a
		// direct m.Run would panic on the caller's goroutine.
		if r := recover(); r != nil {
			if _, closed := r.(errEvalStreamClosed); !closed {
				panic(r)
			}
		}
	}()
	st.proxy.yield = yield
	for {
		st.hist = st.m.Run(&st.proxy, st.space, st.s, st.g)
		st.m, st.space, st.g, st.proxy.o = nil, Space{}, nil, nil
		if !yield(nil) {
			return
		}
	}
}

// Start begins m.Run(o, space, s, g) on an idle reusable stream: one fresh
// from NewReusableEvalStream, or one whose last run finished and was
// Released. Like NewEvalStream, the method runs from the first Next.
func (st *EvalStream) Start(m Method, o Oracle, space Space, s Settings, g *rng.RNG) {
	if !st.reusable || !st.done || st.closed || st.hist != nil {
		panic("hpo: Start on an EvalStream that is not an idle reusable stream")
	}
	st.begin(m, o, space, s, g)
}

func (st *EvalStream) begin(m Method, o Oracle, space Space, s Settings, g *rng.RNG) {
	st.m, st.space, st.s, st.g, st.proxy.o = m, space, s, g, o
	st.done = false
}

// Release drops a finished run's History (read it first), so a parked
// stream pins nothing of the run it served.
func (st *EvalStream) Release() {
	if !st.done {
		panic("hpo: Release on an EvalStream with a run in progress")
	}
	st.hist = nil
}

// streamOracle is the proxy handed to the driven method: evaluations suspend
// the coroutine, everything else forwards.
type streamOracle struct {
	o     Oracle
	st    *EvalStream
	yield func(*EvalBatch) bool
}

// Evaluate is a one-ask batch of cfg's pool index. Built-in methods ask by
// index; this serves a method that asks by config, which must be a pool
// member.
func (p *streamOracle) Evaluate(cfg fl.HParams, rounds int, evalID string) float64 {
	i := poolIndex(p.o.Pool(), cfg)
	if i < 0 {
		panic(fmt.Sprintf("hpo: EvalStream: config %+v is not a pool member", cfg))
	}
	obs, _ := p.st.one.evaluate(p, i, rounds, evalID)
	return obs
}

// EvaluateBatch suspends once for the whole batch.
func (p *streamOracle) EvaluateBatch(b *EvalBatch) {
	if len(b.Indices) > 0 && !p.yield(b) {
		panic(errEvalStreamClosed{})
	}
}
func (p *streamOracle) TrueError(cfg fl.HParams, rounds int) float64 {
	return p.o.TrueError(cfg, rounds)
}
func (p *streamOracle) TrueErrorAt(i, rounds int) float64 { return trueErrorAt(p.o, i, rounds) }
func (p *streamOracle) SampleSize() int                   { return p.o.SampleSize() }
func (p *streamOracle) Pool() []fl.HParams                { return p.o.Pool() }
func (p *streamOracle) MaxRounds() int                    { return p.o.MaxRounds() }

// Next resumes the method — which reads the previous batch's Out as its
// answers — until it asks for more evaluations or finishes. ok is false when
// the method has returned (History is then valid). The batch is the method's
// own (or the stream's scratch) and is valid until the following Next. A
// method panic propagates out of Next and leaves the stream unusable but for
// Close.
func (s *EvalStream) Next() (*EvalBatch, bool) {
	if s.done {
		return nil, false
	}
	b, _ := s.next()
	if b != nil {
		return b, true
	}
	// The method returned and the coroutine parked (a nil batch), or the
	// coroutine is gone (iter.Pull's zero value after Close).
	s.done = true
	if !s.reusable {
		s.Close()
	}
	return nil, false
}

// History returns the finished method's observation log (nil until Next has
// reported completion, after a mid-run Close, and after Release).
func (s *EvalStream) History() *History { return s.hist }

// Close releases the stream and its coroutine. A suspended method unwinds
// without completing; a parked coroutine exits. Close is idempotent, and
// callers that abandon a stream — mid-run, or a reusable stream they no
// longer keep — must Close it so the coroutine is collected.
func (s *EvalStream) Close() {
	if !s.closed {
		s.closed, s.done = true, true
		s.stop()
	}
}
