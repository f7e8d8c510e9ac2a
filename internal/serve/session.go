package serve

import (
	"cmp"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/exper"
	"noisyeval/internal/fl"
	"noisyeval/internal/hpo"
	"noisyeval/pkg/client"
)

// Session defaults and limits.
const (
	// DefaultSessionIdleTTL reaps sessions untouched for this long.
	DefaultSessionIdleTTL = 10 * time.Minute
	// DefaultMaxSessions bounds concurrently retained sessions.
	DefaultMaxSessions = 64
	// ExternalMethod is the method name selecting an externally driven
	// session: no built-in tuner runs; the client proposes configurations
	// itself through tell/evaluate.
	ExternalMethod = "external"
)

// SessionState is a session's lifecycle state:
//
//	active ──▶ done     (the driven method finished its budget)
//	   │ ────▶ failed   (the driven method panicked)
//	   └─────▶ closed   (DELETE, idle reaping, or daemon shutdown)
//
// done, failed, and closed are terminal; terminal sessions answer GET until
// idle-reaped but reject ask/tell with session_terminal. On the wire a state
// is its string.
type SessionState string

const (
	SessionActive SessionState = "active"
	SessionDone   SessionState = "done"
	SessionFailed SessionState = "failed"
	SessionClosed SessionState = "closed"
)

// Terminal reports whether the state admits no further ask/tell.
func (s SessionState) Terminal() bool { return s != SessionActive }

// normalizeSession is normalizeRun for the session form; an empty method
// selects an externally driven session.
func normalizeSession(r *client.SessionRequest) {
	if strings.TrimSpace(r.Method) == "" {
		r.Method = ExternalMethod
	}
	run := client.RunRequest{Dataset: r.Dataset, Method: r.Method, Scale: r.Scale, Trials: 1, Seed: r.Seed, Noise: r.Noise}
	normalizeRun(&run)
	r.Dataset, r.Method, r.Scale, r.Seed, r.Noise = run.Dataset, run.Method, run.Scale, run.Seed, run.Noise
}

// validateSession reports the first problem with a normalized request as a
// coded apiError.
func validateSession(r client.SessionRequest, scales []string) error {
	if !exper.KnownDataset(r.Dataset) {
		return codef(CodeUnknownDataset, "unknown dataset %q (valid: %s)", r.Dataset, strings.Join(exper.DatasetNames, ", "))
	}
	if r.Method != ExternalMethod {
		if _, err := hpo.MethodByName(r.Method); err != nil {
			return codef(CodeUnknownMethod, "unknown method %q (valid: %s, or %q)", r.Method, strings.Join(hpo.Methods(), ", "), ExternalMethod)
		}
	}
	if !scaleKnown(r.Scale, scales) {
		return codef(CodeUnknownScale, "unknown scale %q (valid: %s)", r.Scale, strings.Join(scales, ", "))
	}
	if r.Trial < 0 || r.Trial >= MaxTrials {
		return codef(CodeInvalidTrials, "trial %d outside [0, %d)", r.Trial, MaxTrials)
	}
	return validateNoise(r.Noise)
}

// betterTrial mirrors hpo's recommendation order: higher fidelity first,
// then lower observed error.
func betterTrial(a, b client.SessionTrial) bool {
	if a.Rounds != b.Rounds {
		return a.Rounds > b.Rounds
	}
	return a.Observed < b.Observed
}

// Session is one stateful ask/tell tuner bound to a warm bank oracle.
// Everything — oracle evaluations (the WithTrial scratch is single-owner)
// and the driven method itself, an hpo.EvalStream coroutine resumed on
// whichever handler goroutine calls Ask or Tell — runs under mu.
type Session struct {
	ID  string
	Key string
	Req client.SessionRequest

	oracle   *core.BankOracle // WithTrial(Req.Trial) copy
	settings hpo.Settings
	bankKey  string
	created  time.Time

	// lastUsed is unix nanoseconds of the last API touch, atomically
	// readable so the reaper never contends with a busy handler.
	lastUsed atomic.Int64

	mu     sync.Mutex
	state  SessionState
	stream *hpo.EvalStream // nil for external sessions
	// The ask protocol over the stream's batches: batch[pos] is the next
	// item to serve, pending is the item asked and not yet told (one at a
	// time), nextID numbers asks from 0.
	batch   *hpo.EvalBatch
	pos     int
	pending *client.AskItem
	nextID  int
	trials  []client.SessionTrial
	best    *client.SessionTrial
	asked   int
	told    int
	evals   int
	spent   int         // evaluate-path rounds charged
	trained map[int]int // per-config high-water checkpoint already paid for
	errMsg  string
}

func newSession(key string, req client.SessionRequest, tt exper.TuneTrial, bankKey string, now time.Time) *Session {
	s := &Session{
		Key: key, Req: req,
		oracle: tt.Oracle, stream: tt.Stream, settings: tt.Settings,
		bankKey: bankKey, created: now,
		state:   SessionActive,
		trained: map[int]int{},
	}
	s.lastUsed.Store(now.UnixNano())
	return s
}

// touch records API activity for idle reaping.
func (s *Session) touch(now time.Time) { s.lastUsed.Store(now.UnixNano()) }

// LastUsed returns the last API touch.
func (s *Session) LastUsed() time.Time { return time.Unix(0, s.lastUsed.Load()) }

// Ask returns the driven method's next suggestion, resuming the method when
// none is parked.
func (s *Session) Ask() (client.AskResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stream == nil {
		return client.AskResponse{}, codef(CodeExternalSession, "session %s is externally driven: it has no method to ask; propose configurations via tell", s.ID)
	}
	switch s.state {
	case SessionActive:
		s.asked++
		if s.advanceLocked(); s.state == SessionFailed {
			return client.AskResponse{}, codef(CodeInternal, "session %s failed: %s", s.ID, s.errMsg)
		}
	case SessionFailed, SessionClosed:
		return client.AskResponse{}, codef(CodeSessionTerminal, "session %s is %s", s.ID, s.state)
	}
	if s.state == SessionDone {
		return client.AskResponse{Asks: []client.AskItem{}, Done: true, State: string(s.state)}, nil
	}
	return client.AskResponse{Asks: []client.AskItem{*s.pending}, Done: false, State: string(SessionActive)}, nil
}

// advanceLocked parks the method's next ask in s.pending unless one is parked
// already (re-asking is idempotent), resuming the method when its current
// batch is used up. A method that returns instead leaves the session done
// with the method's own final recommendation as best (so a completed session
// reports exactly what /v1/runs would); a method that panics — on this
// goroutine, like a direct Run — leaves it failed.
func (s *Session) advanceLocked() {
	defer func() {
		if r := recover(); r != nil {
			s.state, s.errMsg = SessionFailed, fmt.Sprintf("method %s panicked: %v", s.Req.Method, r)
		}
	}()
	for s.pending == nil {
		if s.batch != nil && s.pos < len(s.batch.Indices) {
			b, i := s.batch, s.pos
			ci := b.Indices[i]
			s.pending = &client.AskItem{
				ID: s.nextID, ConfigIndex: ci, Config: client.HParams(s.oracle.Pool()[ci]),
				Rounds: b.RoundsAt(i), EvalID: b.EvalIDAt(i),
			}
			s.nextID++
			return
		}
		var more bool
		if s.batch, more = s.stream.Next(); !more {
			s.state = SessionDone
			h := s.stream.History()
			if i := h.Best(); i >= 0 {
				rec := h.At(i)
				s.best = &client.SessionTrial{
					Index: -1, Source: "ask", Config: client.HParams(rec.Config), ConfigIndex: h.PoolIndex(i),
					Rounds: rec.Rounds, Observed: rec.Observed, TrueErr: rec.True,
				}
			}
			return
		}
		s.pos = 0
	}
}

// Tell answers the pending ask and/or evaluates caller-proposed
// configurations. A tell applies all of its items or none: every item is
// checked against the session — as the items before it would leave it —
// before anything changes.
func (s *Session) Tell(req client.TellRequest) (client.TellResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state.Terminal() {
		return client.TellResponse{}, codef(CodeSessionTerminal, "session %s is %s", s.ID, s.state)
	}
	if len(req.Answers) > 0 && s.stream == nil {
		return client.TellResponse{}, codef(CodeExternalSession, "session %s is externally driven: there are no asks to answer", s.ID)
	}
	for i, a := range req.Answers {
		pending := s.pending
		switch {
		case i > 0:
			// Asks are sequential: the answer before this one used up the
			// only pending ask.
			return client.TellResponse{}, codef(CodeNoPendingAsk, "tell %d: no pending ask after ask %d (answer one ask per tell)", a.AskID, req.Answers[0].AskID)
		case pending == nil:
			return client.TellResponse{}, codef(CodeNoPendingAsk, "tell %d: no pending ask (call ask first)", a.AskID)
		case pending.ID != a.AskID:
			return client.TellResponse{}, codef(CodeAskMismatch, "tell %d: pending ask is %d", a.AskID, pending.ID)
		}
	}
	plans, err := s.planEvaluateLocked(req.Evaluate)
	if err != nil {
		return client.TellResponse{}, err
	}

	resp := client.TellResponse{Results: []client.SessionTrial{}}
	if len(req.Answers) > 0 {
		if err := s.answerLocked(req.Answers[0]); err != nil {
			return client.TellResponse{}, err
		}
	}
	for _, p := range plans {
		resp.Results = append(resp.Results, s.evaluateLocked(p))
	}

	// Let the method absorb the answer so the response reports an accurate
	// done/state; its next suggestion stays parked for the next ask.
	if len(req.Answers) > 0 {
		s.advanceLocked()
	}

	resp.State = string(s.state)
	resp.Done = s.state == SessionDone
	resp.Best = s.bestLocked()
	resp.SpentRounds = s.spent
	if s.state == SessionFailed {
		return resp, codef(CodeInternal, "session %s failed: %s", s.ID, s.errMsg)
	}
	return resp, nil
}

// answerLocked records the answer to the pending ask, which the caller has
// matched: the caller's own value, or the oracle's evaluation of the ask.
func (s *Session) answerLocked(a client.TellAnswer) error {
	pending := s.pending
	trial := client.SessionTrial{
		Source: "ask", AskID: &pending.ID, ConfigIndex: pending.ConfigIndex, Config: pending.Config,
		Rounds: pending.Rounds, EvalID: pending.EvalID,
	}
	if a.Observed != nil {
		trial.Observed = *a.Observed
		trial.TrueErr = s.oracle.TrueErrorAt(pending.ConfigIndex, pending.Rounds)
	} else {
		ev, err := s.oracle.EvaluateIndex(pending.ConfigIndex, pending.Rounds, pending.EvalID)
		if err != nil {
			return codef(CodeInternal, "evaluate ask %d: %v", a.AskID, err)
		}
		trial.Observed, trial.TrueErr, trial.Rounds = ev.Observed, ev.True, ev.Rounds
	}
	s.batch.Out[s.pos], s.batch.True[s.pos] = trial.Observed, trial.TrueErr
	s.pos++
	s.pending = nil
	s.told++
	s.recordLocked(trial)
	return nil
}

// evalPlan is one checked evaluate item: the pool index it resolved to, the
// checkpoint it reads, its cohort and the rounds it charges.
type evalPlan struct {
	ci, rounds int
	evalID     string
	cost       int
}

// planEvaluateLocked checks the caller-proposed evaluations — the config (by
// index, or by vector snapped to the pool), the rounds, and the incremental
// training cost of each against the budget left by the items before it —
// and changes nothing.
func (s *Session) planEvaluateLocked(items []client.TellEval) ([]evalPlan, error) {
	bank := s.oracle.Bank()
	pool, maxRounds := bank.Configs, bank.MaxRounds()
	plans := make([]evalPlan, 0, len(items))
	spent := s.spent
	var trained map[int]int // high-water marks raised by earlier items
	for j, e := range items {
		var ci int
		switch {
		case e.ConfigIndex != nil && e.Config != nil:
			return nil, codef(CodeBadRequest, "evaluate: config_index and config are mutually exclusive")
		case e.ConfigIndex != nil:
			ci = *e.ConfigIndex
			if ci < 0 || ci >= len(pool) {
				return nil, codef(CodeBadRequest, "evaluate: config_index %d outside pool [0, %d)", ci, len(pool))
			}
		case e.Config != nil:
			ci = hpo.NearestConfig(pool, fl.HParams(*e.Config), hpo.DefaultSpace())
		default:
			return nil, codef(CodeBadRequest, "evaluate: one of config_index or config is required")
		}
		rounds := e.Rounds
		if rounds == 0 {
			rounds = maxRounds
		}
		if rounds < 1 || rounds > maxRounds {
			return nil, codef(CodeBadRequest, "evaluate: rounds %d outside [1, %d]", rounds, maxRounds)
		}
		evalID := e.EvalID
		if evalID == "" {
			evalID = fmt.Sprintf("tell-%d", s.evals+j)
		}

		// Incremental budget: advancing config ci to a checkpoint charges
		// only the rounds past its previous high-water mark, mirroring the
		// checkpoint-reuse accounting of SHA and the bank build itself.
		read := bank.Rounds[bank.CheckpointIndex(rounds)]
		high, ok := trained[ci]
		if !ok {
			high = s.trained[ci]
		}
		cost := max(read-high, 0)
		if spent+cost > s.settings.Budget.TotalRounds {
			return nil, codef(CodeBudgetExhausted,
				"evaluate: %d rounds would exceed the session budget (%d spent of %d)",
				cost, spent, s.settings.Budget.TotalRounds)
		}
		spent += cost
		if read > high {
			if trained == nil {
				trained = map[int]int{}
			}
			trained[ci] = read
		}
		plans = append(plans, evalPlan{ci: ci, rounds: rounds, evalID: evalID, cost: cost})
	}
	return plans, nil
}

// evaluateLocked serves one checked evaluation: read the oracle, charge the
// planned cost and log the trial.
func (s *Session) evaluateLocked(p evalPlan) client.SessionTrial {
	ev, err := s.oracle.EvaluateIndex(p.ci, p.rounds, p.evalID)
	if err != nil {
		panic(err) // planEvaluateLocked checked the index and rounds
	}
	s.spent += p.cost
	if ev.Rounds > s.trained[p.ci] {
		s.trained[p.ci] = ev.Rounds
	}
	s.evals++
	trial := client.SessionTrial{
		Source: "tell", ConfigIndex: p.ci, Config: client.HParams(s.oracle.Pool()[p.ci]),
		Rounds: ev.Rounds, Observed: ev.Observed, TrueErr: ev.True, EvalID: p.evalID,
	}
	return s.recordLocked(trial)
}

// recordLocked appends to the trial log, updates the running best and
// returns the trial as logged, its Index set.
func (s *Session) recordLocked(t client.SessionTrial) client.SessionTrial {
	t.Index = len(s.trials)
	s.trials = append(s.trials, t)
	if s.best == nil || betterTrial(t, *s.best) {
		cp := t
		s.best = &cp
	}
	return t
}

// bestLocked returns a copy of the current best.
func (s *Session) bestLocked() *client.SessionTrial {
	if s.best == nil {
		return nil
	}
	cp := *s.best
	return &cp
}

// Close terminates the session (DELETE, idle reaping, shutdown), unwinding a
// method suspended mid-run. It never waits on anything but the session lock.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stream != nil {
		s.stream.Close()
	}
	if !s.state.Terminal() {
		s.state = SessionClosed
	}
}

// Status snapshots the session for GET.
func (s *Session) Status() client.SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	bank := s.oracle.Bank()
	return client.SessionStatus{
		ID: s.ID, Key: s.Key, State: string(s.state), Request: s.Req,
		CreatedAt:    s.created.UTC().Format(time.RFC3339Nano),
		External:     s.stream == nil,
		Asked:        s.asked,
		Told:         s.told,
		Evals:        s.evals,
		SpentRounds:  s.spent,
		BudgetRounds: s.settings.Budget.TotalRounds,
		BankKey:      s.bankKey,
		PoolSize:     len(bank.Configs),
		MaxRounds:    bank.MaxRounds(),
		Checkpoints:  append([]int(nil), bank.Rounds...),
		Trials:       append([]client.SessionTrial(nil), s.trials...),
		Best:         s.bestLocked(),
		Error:        s.errMsg,
	}
}

// scaleKnown reports membership of scale in scales.
func scaleKnown(scale string, scales []string) bool {
	for _, s := range scales {
		if s == scale {
			return true
		}
	}
	return false
}

// OpenSession validates the request, warms the bank (building it on first
// use, exactly as a run would), and registers a new session. exper.OpenTrial
// wires the oracle and method stream: a session with (seed, trial) evaluates
// on the same cohorts and draws the same method stream as bootstrap trial
// `trial` of the equivalent /v1/runs submission — that equivalence is what
// the ask/tell parity tests pin.
func (m *Manager) OpenSession(req client.SessionRequest) (sess *Session, err error) {
	normalizeSession(&req)
	if err := validateSession(req, m.ScaleNames()); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	if m.draining() {
		return nil, ErrShuttingDown
	}
	suite, err := m.suiteFor(req.Scale)
	if err != nil {
		return nil, err
	}
	treq := exper.TuneRequest{Dataset: req.Dataset, Noise: core.Noise(req.Noise), Seed: req.Seed}
	if req.Method != ExternalMethod {
		if treq.Method, err = hpo.MethodByName(req.Method); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadRequest, codef(CodeUnknownMethod, "%v", err))
		}
	}

	// OpenTrial builds the bank on first use, and bank construction panics
	// on internal failure; a serving layer needs an error. The suite
	// deduplicates concurrent builds internally.
	defer func() {
		if r := recover(); r != nil {
			sess, err = nil, fmt.Errorf("open session: %v", r)
		}
	}()
	tt, err := suite.OpenTrial(treq, req.Trial)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, codef(CodeInvalidNoise, "%v", err))
	}
	// Same address a run records (build inputs; fingerprint for installed
	// banks), so session and run provenance line up for one dataset.
	bankKey := suite.BankKeyFor(req.Dataset)
	key := core.RunKey(bankKey, "session "+cmp.Or(tt.MethodKey, ExternalMethod), treq.Noise, tt.Settings, req.Trial+1, req.Seed)
	sess = newSession(key, req, tt, bankKey, time.Now())
	if err := m.sessions.Add(sess); err != nil {
		sess.Close()
		return nil, err
	}
	return sess, nil
}
