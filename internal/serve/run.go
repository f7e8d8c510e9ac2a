package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"time"

	"noisyeval/internal/exper"
	"noisyeval/internal/obs"
	"noisyeval/pkg/client"
)

// State is a run's lifecycle state. Transitions form a small FSM:
//
//	queued ──▶ running ──▶ done
//	   │           └─────▶ failed
//	   └─────────────────▶ cancelled   (shutdown drains the queue)
//
// done, failed, and cancelled are terminal. On the wire (client.RunStatus,
// client.Event, client.RunListItem) a state is its string.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state admits no further transitions.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Run is one submitted tuning job moving through the lifecycle FSM. All
// mutation goes through the manager; readers use Snapshot / Subscribe.
type Run struct {
	ID  string
	Key string
	Req client.RunRequest

	seq  int               // numeric suffix of ID: the registry's sort key
	treq exper.TuneRequest // resolved at submit time

	mu         sync.Mutex
	state      State
	events     []client.Event
	subs       map[chan client.Event]struct{}
	trialsDone int
	result     *exper.TuneResult
	errMsg     string
	created    time.Time
	started    time.Time
	finished   time.Time
	body       []byte // terminal response bytes, marshaled exactly once
	etag       string // strong ETag over body

	// trace is the run's obs timeline, set at admission (nil for
	// journal-recovered runs — their original spans died with the process).
	// Immutable after publication; the Trace itself is concurrency-safe.
	trace *obs.Trace
}

func newRun(id, key string, req client.RunRequest, treq exper.TuneRequest, now time.Time) *Run {
	r := &Run{
		ID: id, Key: key, Req: req, seq: runSeq(id), treq: treq,
		state:   StateQueued,
		subs:    map[chan client.Event]struct{}{},
		created: now,
	}
	r.appendEventLocked(client.Event{Type: "state", State: string(StateQueued)})
	return r
}

// recoverRun reconstructs a run from its journaled fold. Non-terminal runs
// come back queued (whatever partial execution the dead process did is lost;
// re-admission re-executes from scratch, deterministically by RunKey) with
// the same single queued event the original had at seq 0 — so the recovered
// run's event stream replays the exact seq numbering the original would
// have produced, and Last-Event-ID resume across a crash is seamless.
// Terminal runs replay their full FSM path through the same start/trial/
// finish methods the live path uses, so the cached response body and ETag
// are regenerated byte-identically.
func recoverRun(rr RecoveredRun, treq exper.TuneRequest) *Run {
	r := newRun(rr.ID, rr.Key, rr.Request, treq, rr.Created)
	if !rr.State.Terminal() {
		return r
	}
	if !rr.Started.IsZero() {
		r.start(rr.Started)
	}
	// The live process emits trial events in completion order (trials run in
	// parallel); that order died with it, so replay in canonical index order.
	// The set of (index, final) pairs is identical — finals are deterministic
	// by RunKey — only the interleaving differs.
	if rr.Result != nil {
		for i := 0; i < rr.TrialsDone && i < len(rr.Result.Finals); i++ {
			r.trial(exper.TrialUpdate{
				Trial: i, Completed: i + 1, Total: rr.Request.Trials,
				FinalTrue: rr.Result.Finals[i],
			})
		}
	} else if rr.TrialsDone > 0 {
		r.mu.Lock()
		r.trialsDone = rr.TrialsDone
		r.mu.Unlock()
	}
	r.finish(rr.State, rr.Result, rr.Error, rr.Finished)
	return r
}

// recoveryState snapshots everything the journal needs to reconstruct this
// run: the durable complement of Snapshot.
func (r *Run) recoveryState() RecoveredRun {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RecoveredRun{
		ID: r.ID, Key: r.Key, Request: r.Req,
		Created: r.created, Started: r.started,
		State: r.state, Error: r.errMsg, Result: r.result,
		TrialsDone: r.trialsDone, Finished: r.finished,
	}
}

// park detaches a queued run's subscribers without a state transition: the
// daemon is shutting down, the run stays journaled as queued, and the next
// boot re-admits it. Streaming clients see their channel close on a
// non-terminal history and reconnect with Last-Event-ID once the daemon is
// back.
func (r *Run) park() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for ch := range r.subs {
		close(ch)
	}
	r.subs = map[chan client.Event]struct{}{}
}

// State returns the current lifecycle state.
func (r *Run) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// CreatedAt returns when the run was admitted.
func (r *Run) CreatedAt() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.created
}

// FinishedAt returns when the run reached a terminal state (zero if it has
// not); the registry's TTL eviction measures retention from this instant.
func (r *Run) FinishedAt() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.finished
}

// appendEventLocked stamps, records, and broadcasts one event. Callers hold
// r.mu (newRun runs before the Run escapes its constructor). Subscriber
// channels are buffered for the run's worst-case event count, so sends never
// block; a terminal event closes every subscriber channel.
func (r *Run) appendEventLocked(e client.Event) {
	e.Seq = len(r.events)
	r.events = append(r.events, e)
	for ch := range r.subs {
		select {
		case ch <- e:
		default: // subscriber gave up its buffer; it still has the replay
		}
	}
	if e.Type == "state" && State(e.State).Terminal() {
		for ch := range r.subs {
			close(ch)
		}
		r.subs = map[chan client.Event]struct{}{}
	}
}

// Subscribe returns the full event history so far plus a channel of
// subsequent events; the channel is closed after the terminal event (already
// closed when the run is already terminal). cancel detaches early.
func (r *Run) Subscribe() (replay []client.Event, ch <-chan client.Event, cancel func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	replay = append([]client.Event(nil), r.events...)
	c := make(chan client.Event, r.Req.Trials+8)
	if r.state.Terminal() {
		close(c)
		return replay, c, func() {}
	}
	r.subs[c] = struct{}{}
	return replay, c, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if _, ok := r.subs[c]; ok {
			delete(r.subs, c)
			close(c)
		}
	}
}

// start transitions queued → running.
func (r *Run) start(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state = StateRunning
	r.started = now
	r.appendEventLocked(client.Event{Type: "state", State: string(StateRunning)})
}

// trial records one finished bootstrap trial.
func (r *Run) trial(u exper.TrialUpdate) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trialsDone = u.Completed
	r.appendEventLocked(client.Event{Type: "trial", Trial: &client.TrialInfo{
		Index: u.Trial, Completed: u.Completed, Total: u.Total, FinalErr: u.FinalTrue,
	}})
}

// finish transitions to a terminal state, marshals the response body exactly
// once, and derives the strong ETag — every later GET of this run serves
// these exact bytes, which is what makes "same result bytes" checkable for
// deduplicated submissions.
func (r *Run) finish(state State, res *exper.TuneResult, errMsg string, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state.Terminal() {
		return
	}
	r.state = state
	r.result = res
	r.errMsg = errMsg
	r.finished = now
	r.appendEventLocked(client.Event{Type: "state", State: string(state), Error: errMsg})
	// writeJSON's encoder, so live and cached snapshots of one run render
	// identically on the wire. A status that does not encode (a NaN in the
	// result) caches nothing: every read re-encodes it through writeJSON,
	// which answers 500.
	buf, err := encodeBody(r.statusLocked())
	if err != nil {
		return
	}
	r.body = bytes.Clone(buf.Bytes())
	putBody(buf)
	sum := sha256.Sum256(r.body)
	r.etag = `"` + hex.EncodeToString(sum[:16]) + `"`
}

// Snapshot returns the run's wire status plus, for terminal runs, the cached
// response bytes and strong ETag (nil bytes while the run is live — live
// snapshots are marshaled per request because they still change).
func (r *Run) Snapshot() (st client.RunStatus, body []byte, etag string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.statusLocked(), r.body, r.etag
}

// Cached returns a terminal run's response bytes and strong ETag (nil bytes
// while the run is live) without building a status — the GET, 304 and
// dedup paths serve these bytes as they are.
func (r *Run) Cached() (body []byte, etag string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.body, r.etag
}

// listItem returns the run's row of GET /v1/runs.
func (r *Run) listItem() client.RunListItem {
	r.mu.Lock()
	defer r.mu.Unlock()
	return client.RunListItem{
		ID: r.ID, Key: r.Key, State: string(r.state),
		Dataset: r.Req.Dataset, Method: r.Req.Method, Scale: r.Req.Scale,
		TrialsDone: r.trialsDone, Trials: r.Req.Trials,
	}
}

func (r *Run) statusLocked() client.RunStatus {
	st := client.RunStatus{
		ID: r.ID, Key: r.Key, State: string(r.state), Request: r.Req,
		CreatedAt:   r.created.UTC().Format(time.RFC3339Nano),
		TrialsDone:  r.trialsDone,
		TrialsTotal: r.Req.Trials,
		Error:       r.errMsg,
	}
	if !r.started.IsZero() {
		st.StartedAt = r.started.UTC().Format(time.RFC3339Nano)
	}
	if !r.finished.IsZero() {
		st.FinishedAt = r.finished.UTC().Format(time.RFC3339Nano)
	}
	if res := r.result; res != nil {
		rr := &client.RunResult{
			MedianErr:    res.Summary.Median,
			Q1Err:        res.Summary.Q1,
			Q3Err:        res.Summary.Q3,
			MeanErr:      res.Summary.Mean,
			Finals:       res.Finals,
			BudgetRounds: res.BudgetRounds,
			BankKey:      res.BankKey,
		}
		if res.Best != nil {
			rr.Best = &client.BestConfig{Config: client.HParams(res.Best.Config), TrueErr: res.Best.True, Rounds: res.Best.Rounds}
		}
		st.Result = rr
	}
	return st
}
