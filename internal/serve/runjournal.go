// Durable run journal: the serve-layer semantics over the generic WAL in
// internal/serve/journal. Every run lifecycle transition appends one typed,
// CRC-framed record; on boot the manager folds snapshot+WAL back into its
// registry — terminal runs serve their cached results immediately, and
// non-terminal runs re-enter the queue (re-execution is deterministic by
// RunKey, so a recovered run reproduces the exact result and event sequence
// the lost process would have delivered). See DESIGN.md §11.

package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"noisyeval/internal/exper"
	"noisyeval/internal/serve/journal"
	"noisyeval/pkg/client"
)

// Journal record kinds, one per lifecycle edge worth persisting.
// "submit" admits a run (state queued); "start" marks it running; "terminal"
// closes it. A run with a submit record and no terminal record is, by
// definition, work the daemon still owes its clients.
const (
	jkSubmit   = "submit"
	jkStart    = "start"
	jkTerminal = "terminal"
)

// submitRecord journals one admitted run. The full normalized RunRequest
// rides along so recovery can re-derive the exper.TuneRequest (method
// registry lookup included) through exactly the code path Submit used.
type submitRecord struct {
	ID        string            `json:"id"`
	Key       string            `json:"key"`
	Request   client.RunRequest `json:"request"`
	CreatedNs int64             `json:"created_ns"`
}

// startRecord journals the queued → running edge.
type startRecord struct {
	ID        string `json:"id"`
	StartedNs int64  `json:"started_ns"`
}

// terminalRecord journals a terminal transition with everything needed to
// reconstruct the run's cached response bytes: result, error, progress, and
// the timestamps that appear in the wire status. Timestamps are UnixNano so
// the RFC3339Nano strings in a recovered body match the original's exactly
// (JSON round-trips float64s losslessly, so the numeric payload matches
// too — recovery is byte-identical, which the replay tests pin).
type terminalRecord struct {
	ID         string            `json:"id"`
	State      State             `json:"state"`
	Error      string            `json:"error,omitempty"`
	Result     *exper.TuneResult `json:"result,omitempty"`
	TrialsDone int               `json:"trials_done"`
	StartedNs  int64             `json:"started_ns,omitempty"`
	FinishedNs int64             `json:"finished_ns"`
}

// RecoveredRun is the fold of one run's journal records: what the registry
// knew about it when the previous process died.
type RecoveredRun struct {
	ID         string
	Key        string
	Request    client.RunRequest
	Created    time.Time
	Started    time.Time // zero until a start or terminal record said otherwise
	State      State
	Error      string
	Result     *exper.TuneResult
	TrialsDone int
	Finished   time.Time
}

// JournalOptions configures OpenRunJournal.
type JournalOptions struct {
	// Dir is the journal directory (created if missing).
	Dir string
	// MaxBytes is the hard byte budget across snapshot+WAL. Appends past it
	// become 503 backpressure after an emergency compaction fails to make
	// room (0 = journal.DefaultMaxBytes).
	MaxBytes int64
	// CompactWALBytes triggers a background compaction once the WAL exceeds
	// it (0 = MaxBytes/4).
	CompactWALBytes int64
	// NoSync skips fsyncs (tests only).
	NoSync bool
	// Log receives operational events (nil = silent).
	Log *slog.Logger
}

// RunJournal owns the journal files plus the replayed fold from boot. Its
// mutex orders appends against compaction so a terminal record can never
// slip into the doomed WAL while a compaction snapshot that predates it is
// being published.
type RunJournal struct {
	j          *journal.Journal
	compactWAL int64
	log        *slog.Logger

	mu        sync.Mutex
	recovered []RecoveredRun
	dropped   int64 // malformed or orphaned records skipped at replay
}

// OpenRunJournal opens the journal directory and folds its records. The
// fold tolerates everything short of an unreadable directory: malformed
// JSON, orphaned records, and duplicate terminals are counted and skipped,
// never fatal — a journal exists to survive crashes, so boot must not be
// the fragile step.
func OpenRunJournal(opts JournalOptions) (*RunJournal, error) {
	if opts.MaxBytes == 0 {
		opts.MaxBytes = journal.DefaultMaxBytes
	}
	if opts.CompactWALBytes == 0 {
		opts.CompactWALBytes = opts.MaxBytes / 4
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.DiscardHandler)
	}
	j, records, err := journal.Open(journal.Options{
		Dir:      opts.Dir,
		MaxBytes: opts.MaxBytes,
		NoSync:   opts.NoSync,
		Log:      opts.Log,
	})
	if err != nil {
		return nil, err
	}
	rj := &RunJournal{j: j, compactWAL: opts.CompactWALBytes, log: opts.Log}
	rj.recovered = rj.fold(records)
	return rj, nil
}

// fold collapses the record sequence into per-run recovered state,
// preserving first-submission order. Rules: the first submit record for an
// ID creates it (later duplicates — a snapshot plus a stale WAL after a
// crash mid-compaction — are ignored); start and terminal records for
// unknown IDs are orphans; the first terminal record wins (terminal states
// admit no further transitions, crash or not).
func (rj *RunJournal) fold(records []journal.Record) []RecoveredRun {
	byID := map[string]*RecoveredRun{}
	var order []string
	for _, rec := range records {
		switch rec.Kind {
		case jkSubmit:
			var sr submitRecord
			if err := json.Unmarshal(rec.Data, &sr); err != nil || sr.ID == "" {
				rj.dropped++
				continue
			}
			if _, ok := byID[sr.ID]; ok {
				continue // duplicate from a crash between snapshot and WAL truncate
			}
			byID[sr.ID] = &RecoveredRun{
				ID: sr.ID, Key: sr.Key, Request: sr.Request,
				Created: time.Unix(0, sr.CreatedNs),
				State:   StateQueued,
			}
			order = append(order, sr.ID)
		case jkStart:
			var sr startRecord
			if err := json.Unmarshal(rec.Data, &sr); err != nil {
				rj.dropped++
				continue
			}
			r, ok := byID[sr.ID]
			if !ok {
				rj.dropped++
				continue
			}
			if r.State.Terminal() {
				continue
			}
			r.State = StateRunning
			r.Started = time.Unix(0, sr.StartedNs)
		case jkTerminal:
			var tr terminalRecord
			if err := json.Unmarshal(rec.Data, &tr); err != nil || !tr.State.Terminal() {
				rj.dropped++
				continue
			}
			r, ok := byID[tr.ID]
			if !ok {
				rj.dropped++
				continue
			}
			if r.State.Terminal() {
				continue
			}
			r.State = tr.State
			r.Error = tr.Error
			r.Result = tr.Result
			r.TrialsDone = tr.TrialsDone
			if tr.StartedNs != 0 {
				r.Started = time.Unix(0, tr.StartedNs)
			}
			r.Finished = time.Unix(0, tr.FinishedNs)
		default:
			rj.dropped++
		}
	}
	out := make([]RecoveredRun, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out
}

// Recovered returns the boot-time fold (what NewManager re-admits).
func (rj *RunJournal) Recovered() []RecoveredRun {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	return rj.recovered
}

// Dropped returns how many records the replay skipped as malformed/orphaned.
func (rj *RunJournal) Dropped() int64 {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	return rj.dropped
}

// Stats exposes the underlying journal counters.
func (rj *RunJournal) Stats() journal.Stats { return rj.j.Stats() }

// Bytes returns the journal's current on-disk footprint.
func (rj *RunJournal) Bytes() int64 { return rj.j.Bytes() }

// MaxBytes returns the configured byte budget.
func (rj *RunJournal) MaxBytes() int64 { return rj.j.MaxBytes() }

// append writes one record, and on budget exhaustion compacts against the
// registry and retries once. A second ErrBudget surfaces to the caller (the
// manager maps it to 503 backpressure); other errors are I/O failures.
func (rj *RunJournal) append(reg *Registry, kind string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: encode %s record: %w", kind, err)
	}
	rj.mu.Lock()
	defer rj.mu.Unlock()
	if err := rj.j.Append(kind, data); !errors.Is(err, journal.ErrBudget) {
		return err
	}
	if err := rj.compactLocked(reg); err != nil {
		return err
	}
	return rj.j.Append(kind, data)
}

// recordSubmit journals an admitted run.
func (rj *RunJournal) recordSubmit(reg *Registry, r *Run) error {
	return rj.append(reg, jkSubmit, submitRecord{
		ID: r.ID, Key: r.Key, Request: r.Req,
		CreatedNs: r.CreatedAt().UnixNano(),
	})
}

// recordStart journals the queued → running edge. Best-effort at the call
// site: losing it only costs the recovered run its "running" label, not its
// recoverability.
func (rj *RunJournal) recordStart(reg *Registry, r *Run, started time.Time) error {
	return rj.append(reg, jkStart, startRecord{ID: r.ID, StartedNs: started.UnixNano()})
}

// recordTerminal journals a terminal transition.
func (rj *RunJournal) recordTerminal(reg *Registry, r *Run) error {
	rr := r.recoveryState()
	rec := terminalRecord{
		ID: rr.ID, State: rr.State, Error: rr.Error, Result: rr.Result,
		TrialsDone: rr.TrialsDone, FinishedNs: rr.Finished.UnixNano(),
	}
	if !rr.Started.IsZero() {
		rec.StartedNs = rr.Started.UnixNano()
	}
	return rj.append(reg, jkTerminal, rec)
}

// maybeCompact compacts when the WAL has outgrown its trigger. The manager's
// janitor calls it periodically and execute() calls it after terminal
// appends, so journal growth is bounded by traffic, not uptime.
func (rj *RunJournal) maybeCompact(reg *Registry) error {
	rj.mu.Lock()
	defer rj.mu.Unlock()
	if rj.j.WALBytes() < rj.compactWAL {
		return nil
	}
	return rj.compactLocked(reg)
}

// compactLocked snapshots the registry's current retained state — runs the
// registry has evicted (TTL) simply vanish from the journal, which is what
// reclaims space. Callers hold rj.mu, so no append lands between gathering
// the registry state and publishing the snapshot.
func (rj *RunJournal) compactLocked(reg *Registry) error {
	var records []journal.Record
	add := func(kind string, v any) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		records = append(records, journal.Record{Kind: kind, Data: data})
		return nil
	}
	// Gather under the registry lock, encode outside it.
	var runs []*Run
	reg.Page(0, func(r *Run) bool { runs = append(runs, r); return true })
	for _, run := range runs {
		rr := run.recoveryState()
		if err := add(jkSubmit, submitRecord{
			ID: rr.ID, Key: rr.Key, Request: rr.Request, CreatedNs: rr.Created.UnixNano(),
		}); err != nil {
			return err
		}
		switch {
		case rr.State.Terminal():
			rec := terminalRecord{
				ID: rr.ID, State: rr.State, Error: rr.Error, Result: rr.Result,
				TrialsDone: rr.TrialsDone, FinishedNs: rr.Finished.UnixNano(),
			}
			if !rr.Started.IsZero() {
				rec.StartedNs = rr.Started.UnixNano()
			}
			if err := add(jkTerminal, rec); err != nil {
				return err
			}
		case rr.State == StateRunning:
			if err := add(jkStart, startRecord{ID: rr.ID, StartedNs: rr.Started.UnixNano()}); err != nil {
				return err
			}
		}
	}
	return rj.j.Compact(records)
}

// Close syncs and closes the journal files.
func (rj *RunJournal) Close() error { return rj.j.Close() }
