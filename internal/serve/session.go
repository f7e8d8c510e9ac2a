package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/exper"
	"noisyeval/internal/fl"
	"noisyeval/internal/hpo"
	"noisyeval/internal/rng"
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
// idle-reaped but reject ask/tell with session_terminal.
type SessionState string

const (
	SessionActive SessionState = "active"
	SessionDone   SessionState = "done"
	SessionFailed SessionState = "failed"
	SessionClosed SessionState = "closed"
)

// Terminal reports whether the state admits no further ask/tell.
func (s SessionState) Terminal() bool { return s != SessionActive }

// SessionRequest is the body of POST /v1/sessions: one tuner session bound
// to a (bank, noise model, seed, budget) tuple.
type SessionRequest struct {
	// Dataset is one of exper.DatasetNames.
	Dataset string `json:"dataset"`
	// Method is a tuning-method name from hpo.Methods() whose suggestions
	// the ask endpoint serves, or "external" (also the default when empty):
	// no built-in tuner, the caller proposes configurations via tell.
	Method string `json:"method,omitempty"`
	// Scale selects the suite configuration: "quick" (default) or "full".
	Scale string `json:"scale,omitempty"`
	// Seed drives oracle subsampling and the method's RNG stream
	// (default 1). A session with seed S and trial T evaluates exactly like
	// bootstrap trial T of a /v1/runs submission with seed S.
	Seed uint64 `json:"seed,omitempty"`
	// Trial selects which bootstrap trial's evaluation stream the session
	// replays (default 0, the trial whose recommendation /v1/runs reports
	// as "best").
	Trial int `json:"trial,omitempty"`
	// Noise is the evaluation-noise setting (zero = noiseless reference).
	Noise NoiseRequest `json:"noise,omitempty"`
}

// External reports whether the (normalized) request names no built-in tuner.
func (r SessionRequest) External() bool { return r.Method == ExternalMethod }

// Normalize mirrors RunRequest.Normalize for the session form.
func (r *SessionRequest) Normalize() {
	r.Dataset = strings.ToLower(strings.TrimSpace(r.Dataset))
	r.Method = strings.ToLower(strings.TrimSpace(r.Method))
	if r.Method == "" {
		r.Method = ExternalMethod
	}
	if canon, err := hpo.CanonicalMethodName(r.Method); err == nil {
		r.Method = canon
	}
	r.Scale = strings.ToLower(strings.TrimSpace(r.Scale))
	if r.Scale == "" { // after the trim, so a blank scale defaults as an empty one does
		r.Scale = DefaultScale
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	r.Noise.normalize()
}

// Validate reports the first problem with a normalized request as a coded
// apiError.
func (r SessionRequest) Validate(scales []string) error {
	if !exper.KnownDataset(r.Dataset) {
		return codef(CodeUnknownDataset, "unknown dataset %q (valid: %s)", r.Dataset, strings.Join(exper.DatasetNames, ", "))
	}
	if !r.External() {
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
	return r.Noise.validate()
}

// SessionTrial is one completed evaluation in a session's history — the
// session-side analogue of hpo.Observation, addressed by pool index.
type SessionTrial struct {
	// Index is the position in the session's trial log.
	Index int `json:"index"`
	// Source is "ask" for answered method suggestions, "tell" for
	// caller-proposed evaluations.
	Source string `json:"source"`
	// AskID echoes the answered ask for Source == "ask".
	AskID *int `json:"ask_id,omitempty"`
	// ConfigIndex is the evaluated config's position in the bank pool.
	ConfigIndex int `json:"config_index"`
	// Config is the evaluated configuration.
	Config fl.HParams `json:"config"`
	// Rounds is the checkpoint fidelity actually evaluated.
	Rounds int `json:"rounds"`
	// Observed is the (pre-DP) noisy error the oracle returned — or, for an
	// ask answered with a caller-supplied value, that value.
	Observed float64 `json:"observed"`
	// TrueErr is the noise-free full validation error (reporting only).
	TrueErr float64 `json:"true_err"`
	// EvalID names the evaluation cohort used.
	EvalID string `json:"eval_id"`
}

// betterTrial mirrors hpo's recommendation order: higher fidelity first,
// then lower observed error.
func betterTrial(a, b SessionTrial) bool {
	if a.Rounds != b.Rounds {
		return a.Rounds > b.Rounds
	}
	return a.Observed < b.Observed
}

// AskItem is one suggested evaluation on the wire.
type AskItem struct {
	ID          int        `json:"id"`
	ConfigIndex int        `json:"config_index"`
	Config      fl.HParams `json:"config"`
	Rounds      int        `json:"rounds"`
	EvalID      string     `json:"eval_id"`
}

// AskResponse is the body of POST /v1/sessions/{id}/ask.
type AskResponse struct {
	// Asks holds the pending suggestion (empty when the method is done).
	// Asks are sequential: one pending at a time, re-asked idempotently.
	Asks  []AskItem    `json:"asks"`
	Done  bool         `json:"done"`
	State SessionState `json:"state"`
}

// TellAnswer answers one pending ask.
type TellAnswer struct {
	AskID int `json:"ask_id"`
	// Observed, when set, is the caller's own measurement fed back verbatim.
	// When omitted the server evaluates the pending ask's configuration on
	// the session's bank oracle (the common loop for parity with /v1/runs).
	Observed *float64 `json:"observed,omitempty"`
}

// TellEval is one caller-proposed evaluation: by pool index, or by parameter
// vector snapped to the bank's config pool (hpo.NearestConfig).
type TellEval struct {
	ConfigIndex *int        `json:"config_index,omitempty"`
	Config      *fl.HParams `json:"config,omitempty"`
	// Rounds is the requested fidelity (default: the bank's max; snapped
	// down to a recorded checkpoint).
	Rounds int `json:"rounds,omitempty"`
	// EvalID names the evaluation cohort (default "tell-<n>"; reuse an ID to
	// share a cohort across evaluations, as SHA rungs do).
	EvalID string `json:"eval_id,omitempty"`
}

// TellRequest is the body of POST /v1/sessions/{id}/tell.
type TellRequest struct {
	Answers  []TellAnswer `json:"answers,omitempty"`
	Evaluate []TellEval   `json:"evaluate,omitempty"`
}

// TellResponse reports what the tell accomplished.
type TellResponse struct {
	// Results holds one entry per evaluate item (answers echo no result:
	// their evaluations appear in the session trial log).
	Results []SessionTrial `json:"results"`
	// Done reports whether the driven method finished during this tell.
	Done  bool          `json:"done"`
	State SessionState  `json:"state"`
	Best  *SessionTrial `json:"best,omitempty"`
	// SpentRounds is the cumulative training-round cost of evaluate items
	// (incremental per config: re-reading a checkpoint already paid for is
	// free, matching the bank's checkpoint-reuse accounting).
	SpentRounds int `json:"spent_rounds"`
}

// SessionStatus is the wire form of GET /v1/sessions/{id}.
type SessionStatus struct {
	ID        string         `json:"id"`
	Key       string         `json:"key"`
	State     SessionState   `json:"state"`
	Request   SessionRequest `json:"request"`
	CreatedAt string         `json:"created_at"`
	// External reports whether the session is externally driven (no ask).
	External bool `json:"external"`
	// Asked / Told count protocol progress; Evals counts evaluate items.
	Asked int `json:"asked"`
	Told  int `json:"told"`
	Evals int `json:"evals"`
	// SpentRounds / BudgetRounds track the evaluate-path round budget.
	SpentRounds  int `json:"spent_rounds"`
	BudgetRounds int `json:"budget_rounds"`
	// Bank geometry an external tuner needs to drive the oracle.
	BankKey     string `json:"bank_key"`
	PoolSize    int    `json:"pool_size"`
	MaxRounds   int    `json:"max_rounds"`
	Checkpoints []int  `json:"checkpoints"`
	// Trials is the session's evaluation log, oldest first.
	Trials []SessionTrial `json:"trials"`
	// Best is the best-so-far: while active, the lowest-observed
	// highest-fidelity trial; once done, the driven method's own final
	// recommendation (identical to the /v1/runs best for the same inputs).
	Best  *SessionTrial `json:"best,omitempty"`
	Error string        `json:"error,omitempty"`
}

// Session is one stateful ask/tell tuner bound to a warm bank oracle.
// Everything — oracle evaluations (the WithTrial scratch is single-owner)
// and the driven method itself, an hpo.EvalStream coroutine resumed on
// whichever handler goroutine calls Ask or Tell — runs under mu.
type Session struct {
	ID  string
	Key string
	Req SessionRequest

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
	pending *AskItem
	nextID  int
	trials  []SessionTrial
	best    *SessionTrial
	asked   int
	told    int
	evals   int
	spent   int         // evaluate-path rounds charged
	trained map[int]int // per-config high-water checkpoint already paid for
	errMsg  string
}

func newSession(key string, req SessionRequest, oracle *core.BankOracle,
	stream *hpo.EvalStream, settings hpo.Settings, bankKey string, now time.Time) *Session {

	s := &Session{
		Key: key, Req: req,
		oracle: oracle, stream: stream, settings: settings,
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
func (s *Session) Ask() (AskResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stream == nil {
		return AskResponse{}, codef(CodeExternalSession, "session %s is externally driven: it has no method to ask; propose configurations via tell", s.ID)
	}
	switch s.state {
	case SessionActive:
		s.asked++
		if s.advanceLocked(); s.state == SessionFailed {
			return AskResponse{}, codef(CodeInternal, "session %s failed: %s", s.ID, s.errMsg)
		}
	case SessionFailed, SessionClosed:
		return AskResponse{}, codef(CodeSessionTerminal, "session %s is %s", s.ID, s.state)
	}
	if s.state == SessionDone {
		return AskResponse{Asks: []AskItem{}, Done: true, State: s.state}, nil
	}
	return AskResponse{Asks: []AskItem{*s.pending}, Done: false, State: SessionActive}, nil
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
			s.pending = &AskItem{
				ID: s.nextID, ConfigIndex: ci, Config: s.oracle.Pool()[ci],
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
				s.best = &SessionTrial{
					Index: -1, Source: "ask", Config: rec.Config, ConfigIndex: h.PoolIndex(i),
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
func (s *Session) Tell(req TellRequest) (TellResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state.Terminal() {
		return TellResponse{}, codef(CodeSessionTerminal, "session %s is %s", s.ID, s.state)
	}
	if len(req.Answers) > 0 && s.stream == nil {
		return TellResponse{}, codef(CodeExternalSession, "session %s is externally driven: there are no asks to answer", s.ID)
	}
	for i, a := range req.Answers {
		pending := s.pending
		switch {
		case i > 0:
			// Asks are sequential: the answer before this one used up the
			// only pending ask.
			return TellResponse{}, codef(CodeNoPendingAsk, "tell %d: no pending ask after ask %d (answer one ask per tell)", a.AskID, req.Answers[0].AskID)
		case pending == nil:
			return TellResponse{}, codef(CodeNoPendingAsk, "tell %d: no pending ask (call ask first)", a.AskID)
		case pending.ID != a.AskID:
			return TellResponse{}, codef(CodeAskMismatch, "tell %d: pending ask is %d", a.AskID, pending.ID)
		}
	}
	plans, err := s.planEvaluateLocked(req.Evaluate)
	if err != nil {
		return TellResponse{}, err
	}

	resp := TellResponse{Results: []SessionTrial{}}
	if len(req.Answers) > 0 {
		if err := s.answerLocked(req.Answers[0]); err != nil {
			return TellResponse{}, err
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

	resp.State = s.state
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
func (s *Session) answerLocked(a TellAnswer) error {
	pending := s.pending
	trial := SessionTrial{
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
func (s *Session) planEvaluateLocked(items []TellEval) ([]evalPlan, error) {
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
			ci = hpo.NearestConfig(pool, *e.Config, hpo.DefaultSpace())
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
func (s *Session) evaluateLocked(p evalPlan) SessionTrial {
	ev, err := s.oracle.EvaluateIndex(p.ci, p.rounds, p.evalID)
	if err != nil {
		panic(err) // planEvaluateLocked checked the index and rounds
	}
	s.spent += p.cost
	if ev.Rounds > s.trained[p.ci] {
		s.trained[p.ci] = ev.Rounds
	}
	s.evals++
	trial := SessionTrial{
		Source: "tell", ConfigIndex: p.ci, Config: s.oracle.Pool()[p.ci],
		Rounds: ev.Rounds, Observed: ev.Observed, TrueErr: ev.True, EvalID: p.evalID,
	}
	s.recordLocked(trial)
	return trial
}

// recordLocked appends to the trial log and updates the running best.
func (s *Session) recordLocked(t SessionTrial) {
	t.Index = len(s.trials)
	s.trials = append(s.trials, t)
	if s.best == nil || betterTrial(t, *s.best) {
		cp := t
		s.best = &cp
	}
}

// bestLocked returns a copy of the current best.
func (s *Session) bestLocked() *SessionTrial {
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
func (s *Session) Status() SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	bank := s.oracle.Bank()
	return SessionStatus{
		ID: s.ID, Key: s.Key, State: s.state, Request: s.Req,
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
		Trials:       append([]SessionTrial(nil), s.trials...),
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

// sessionMethodKey renders the session's driving method for the session key
// (same shape as exper's run-key method component).
func sessionMethodKey(m hpo.Method) string {
	return fmt.Sprintf("%s %#v", m.Name(), m)
}

// OpenSession validates the request, warms the bank (building it on first
// use, exactly as a run would), and registers a new session. The oracle and
// RNG wiring mirrors exper.RunTune trial-for-trial: a session with
// (seed, trial) evaluates on the same cohorts and draws the same method
// stream as bootstrap trial `trial` of the equivalent /v1/runs submission —
// that equivalence is what the ask/tell parity tests pin.
func (m *Manager) OpenSession(req SessionRequest) (sess *Session, err error) {
	req.Normalize()
	if err := req.Validate(m.ScaleNames()); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	if m.draining() {
		return nil, ErrShuttingDown
	}
	suite, err := m.suiteFor(req.Scale)
	if err != nil {
		return nil, err
	}

	noise := req.Noise.Noise()
	settings := noise.Settings(hpo.Settings{Budget: suite.Cfg.Budget()})

	// Bank construction panics on internal failure; a serving layer needs an
	// error. The suite deduplicates concurrent builds internally.
	defer func() {
		if r := recover(); r != nil {
			sess, err = nil, fmt.Errorf("open session: %v", r)
		}
	}()
	bank := suite.Bank(req.Dataset)
	// Same address a run records (build inputs; fingerprint for installed
	// banks), so session and run provenance line up for one dataset.
	bankKey := suite.BankKeyFor(req.Dataset)

	oracle, err := core.NewBankOracle(bank, noise.HeterogeneityP, noise.Scheme(), req.Seed)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, codef(CodeInvalidNoise, "%v", err))
	}
	oracle = oracle.WithTrial(req.Trial)

	var stream *hpo.EvalStream
	methodDesc := ExternalMethod
	if !req.External() {
		method, err := hpo.MethodByName(req.Method)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadRequest, codef(CodeUnknownMethod, "%v", err))
		}
		methodDesc = sessionMethodKey(method)
		// The "fedtune" label and per-trial split reproduce the exact RNG
		// stream RunTrials hands trial Req.Trial (exper.RunTune).
		g := rng.New(req.Seed).Split("fedtune").Splitf("trial-%d", req.Trial)
		stream = hpo.NewEvalStream(method, oracle, hpo.DefaultSpace(), settings, g)
	}

	key := core.RunKey(bankKey, "session "+methodDesc, noise, settings, req.Trial+1, req.Seed)
	sess = newSession(key, req, oracle, stream, settings, bankKey, time.Now())
	if err := m.sessions.Add(sess); err != nil {
		sess.Close()
		return nil, err
	}
	return sess, nil
}
