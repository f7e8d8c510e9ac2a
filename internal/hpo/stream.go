package hpo

import (
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
// A stream is used by one goroutine at a time; distinct streams are
// independent.
type EvalStream struct {
	next func() (*EvalBatch, bool)
	stop func()
	hist *History
	done bool

	// one is the scratch batch a lone Evaluate surfaces as.
	one    EvalBatch
	oneCfg [1]fl.HParams
	oneOut [1]float64
}

// NewEvalStream prepares m.Run(o, space, s, g) for stepwise execution. The
// method does not start running until the first Next call.
func NewEvalStream(m Method, o Oracle, space Space, s Settings, g *rng.RNG) *EvalStream {
	st := &EvalStream{}
	st.next, st.stop = iter.Pull(func(yield func(*EvalBatch) bool) {
		defer func() {
			// Close unwinds the coroutine with the sentinel; swallow it so
			// stop() returns cleanly. Genuine method panics propagate to
			// whichever Next/Close call resumed the coroutine, exactly as a
			// direct m.Run would panic on the caller's goroutine.
			if r := recover(); r != nil {
				if _, closed := r.(errEvalStreamClosed); !closed {
					panic(r)
				}
			}
		}()
		st.hist = m.Run(&streamOracle{o: o, st: st, yield: yield}, space, s, g)
	})
	return st
}

// streamOracle is the proxy handed to the driven method: evaluations suspend
// the coroutine, everything else forwards.
type streamOracle struct {
	o     Oracle
	st    *EvalStream
	yield func(*EvalBatch) bool
}

func (p *streamOracle) Evaluate(cfg fl.HParams, rounds int, evalID string) float64 {
	st := p.st
	st.oneCfg[0] = cfg
	st.one = EvalBatch{Configs: st.oneCfg[:], SameRounds: rounds, SameEvalID: evalID, Out: st.oneOut[:]}
	p.EvaluateBatch(&st.one)
	return st.oneOut[0]
}

// EvaluateBatch suspends once for the whole batch.
func (p *streamOracle) EvaluateBatch(b *EvalBatch) {
	if len(b.Configs) > 0 && !p.yield(b) {
		panic(errEvalStreamClosed{})
	}
}
func (p *streamOracle) TrueError(cfg fl.HParams, rounds int) float64 {
	return p.o.TrueError(cfg, rounds)
}
func (p *streamOracle) SampleSize() int    { return p.o.SampleSize() }
func (p *streamOracle) Pool() []fl.HParams { return p.o.Pool() }
func (p *streamOracle) MaxRounds() int     { return p.o.MaxRounds() }

// Next resumes the method — which reads the previous batch's Out as its
// answers — until it asks for more evaluations or finishes. ok is false when
// the method has returned (History is then valid). The batch is the method's
// own (or the stream's scratch) and is valid until the following Next.
func (s *EvalStream) Next() (*EvalBatch, bool) {
	if s.done {
		return nil, false
	}
	b, ok := s.next()
	if !ok {
		s.Close()
	}
	return b, ok
}

// History returns the finished method's observation log (nil until Next has
// reported completion, and after a mid-run Close).
func (s *EvalStream) History() *History { return s.hist }

// Close releases the stream. A suspended method unwinds without completing;
// Close after completion (or before the first Next) is a no-op. Callers that
// abandon a stream mid-run must Close it so the coroutine is collected.
func (s *EvalStream) Close() {
	if !s.done {
		s.done = true
		s.stop()
	}
}
