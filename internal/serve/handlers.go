package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"noisyeval/internal/hpo"
	"noisyeval/internal/obs"
	"noisyeval/pkg/client"
)

// Server is the HTTP facade over a Manager. Routes:
//
//	POST   /v1/runs                submit a tuning job (202; 200 on a dedup hit)
//	GET    /v1/runs                list retained runs (?state=, ?limit=, ?cursor=)
//	GET    /v1/runs/{id}           run status/result (ETag + If-None-Match → 304)
//	GET    /v1/runs/{id}/events    per-trial progress stream (NDJSON; SSE via
//	                               Accept: text/event-stream)
//	GET    /v1/methods             tuning-method catalogue (names, aliases, settings)
//	POST   /v1/sessions            open an ask/tell tuner session (201)
//	GET    /v1/sessions            list open sessions
//	GET    /v1/sessions/{id}       session state, trial log, best-so-far
//	POST   /v1/sessions/{id}/ask   next suggested evaluation from the method
//	POST   /v1/sessions/{id}/tell  answer asks / evaluate caller-chosen configs
//	DELETE /v1/sessions/{id}       close a session
//	GET    /v1/banks               cached banks in the shared store
//	POST   /v1/banks/{key}/grow    extend the served bank a run's bank_key
//	                               names with freshly trained configs; the
//	                               key advances to new_key
//	GET    /v1/runs/{id}/trace     per-run span timeline (trace ID, queue wait,
//	                               bank tiers, worker shards, trials, encode)
//	GET    /metrics                Prometheus text exposition (counters, gauges,
//	                               latency histograms) — the one metric surface
//	GET    /healthz                liveness + queue depth + bank-store state
//
// Every body is a pkg/client type, and every non-2xx response carries
// client.ErrorEnvelope (errors.go holds the code table).
type Server struct {
	mgr     *Manager
	mux     *http.ServeMux
	start   time.Time
	inFl    *obs.Gauge
	total   *obs.Counter
	maxBody int64
}

// NewServer wires the routes for a manager.
func NewServer(m *Manager) *Server {
	s := &Server{
		mgr:     m,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		inFl:    m.Metrics().Gauge("http_requests_in_flight", "API requests currently being served."),
		total:   m.Metrics().Counter("http_requests_total", "API requests served."),
		maxBody: 1 << 20,
	}
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleRun)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleRunTrace)
	s.mux.HandleFunc("GET /v1/methods", s.handleMethods)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionOpen)
	s.mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	s.mux.HandleFunc("POST /v1/sessions/{id}/ask", s.handleSessionAsk)
	s.mux.HandleFunc("POST /v1/sessions/{id}/tell", s.handleSessionTell)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionClose)
	s.mux.HandleFunc("GET /v1/banks", s.handleBanks)
	s.mux.HandleFunc("POST /v1/banks/{key}/grow", s.handleBankGrow)
	s.mux.Handle("GET /metrics", m.Metrics())
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.registerMetricViews()
	return s
}

// registerMetricViews registers read-only views of values other types own —
// the run and session registries, the bank store, the suites and the journal
// — in the manager's metrics registry. Counters the manager and the server
// increment are instruments their constructors register. Registration is
// idempotent by name, so a second server over one manager is harmless.
func (s *Server) registerMetricViews() {
	reg := s.mgr.Metrics()
	m := s.mgr
	reg.GaugeFunc("runs_retained", "Terminal runs retained for dedup and fetch.", func() int64 { return int64(m.reg.Len()) })
	reg.GaugeFunc("sessions_open", "Ask/tell sessions currently open.", func() int64 { return int64(m.sessions.Len()) })
	reg.CounterFunc("sessions_opened_total", "Ask/tell sessions ever opened.", m.sessions.Opened)
	reg.CounterFunc("sessions_reaped_total", "Idle ask/tell sessions reaped.", m.sessions.Reaped)
	reg.CounterFunc("bank_cache_hits_total", "Bank store lookups served from disk.", func() int64 { return m.Store().Stats().Hits })
	reg.CounterFunc("bank_cache_misses_total", "Bank store lookups that missed.", func() int64 { return m.Store().Stats().Misses })
	reg.CounterFunc("bank_cache_builds_total", "Banks built and written through the store.", func() int64 { return m.Store().Stats().Builds })
	reg.CounterFunc("bank_cache_evicted_total", "Bank store entries evicted.", func() int64 { return m.Store().Stats().Evicted })
	reg.CounterFunc("bank_cache_stale_format_total", "Evictions caused by a stale on-disk format.", func() int64 { return m.Store().Stats().StaleFormat })
	reg.CounterFunc("bank_cache_corrupt_segment_total", "Evictions caused by located corruption.", func() int64 { return m.Store().Stats().CorruptSegment })
	reg.CounterFunc("bank_builds_trained_total", "Banks the suites actually trained.", m.BankBuilds)
	reg.GaugeFunc("bank_mapped_files", "Bank entries currently served via mmap.", func() int64 { return m.Store().Mapped().Files })
	reg.GaugeFunc("bank_mapped_bytes", "Total mmap-resident bank bytes.", func() int64 { return m.Store().Mapped().Bytes })
	if jr := m.Journal(); jr != nil {
		reg.GaugeFunc("journal_enabled", "1 when the run journal is active.", func() int64 { return 1 })
		reg.CounterFunc("journal_appends_total", "Journal records appended.", func() int64 { return jr.Stats().Appends })
		reg.CounterFunc("journal_compactions_total", "Journal compactions performed.", func() int64 { return jr.Stats().Compactions })
		reg.CounterFunc("journal_replayed_total", "Journal records replayed at boot.", func() int64 { return jr.Stats().Replayed })
		reg.CounterFunc("journal_torn_tail_total", "Torn WAL tails tolerated at boot.", func() int64 { return jr.Stats().TornTails })
		reg.CounterFunc("journal_dropped_records_total", "Journal records dropped over budget.", jr.Dropped)
		reg.GaugeFunc("journal_bytes", "Snapshot plus WAL bytes on disk.", func() int64 { st := jr.Stats(); return st.SnapshotBytes + st.WALBytes })
		reg.GaugeFunc("journal_snapshot_bytes", "Snapshot bytes on disk.", func() int64 { return jr.Stats().SnapshotBytes })
	} else {
		reg.GaugeFunc("journal_enabled", "1 when the run journal is active.", func() int64 { return 0 })
	}
}

// handleRunTrace implements GET /v1/runs/{id}/trace: the run's span
// timeline. A live run answers with the spans recorded so far; a recovered
// run (whose trace died with the previous process) answers an empty
// timeline rather than 404 — the run exists, its observability doesn't.
func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.mgr.Registry().Get(id); !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no run %q (expired or never submitted)", id)
		return
	}
	tr, _ := s.mgr.TraceFor(id) // nil Trace snapshots to an empty timeline
	writeJSON(w, http.StatusOK, tr.Snapshot())
}

// Mux exposes the server's route table so extra endpoint families (the
// dist coordinator's /v1/work/* and /v1/banks/{key} in cluster mode) can be
// mounted alongside the run API; mount before serving traffic.
func (s *Server) Mux() *http.ServeMux { return s.mux }

// ServeHTTP implements http.Handler with in-flight/total accounting.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inFl.Add(1)
	s.total.Inc()
	defer s.inFl.Add(-1)
	s.mux.ServeHTTP(w, r)
}

// bodyPool recycles the buffers response bodies are encoded into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody bounds the buffers bodyPool keeps, so one huge body does not
// pin its buffer for the life of the process.
const maxPooledBody = 64 << 10

// encodeBody is the daemon's one JSON body encoder: v as compact JSON plus a
// newline, in a pooled buffer the caller returns with putBody. writeJSON and
// Run.finish's cached terminal body both use it, so live and cached bytes of
// one run cannot drift. A value that does not marshal (a NaN, an Inf)
// returns an error and writes nothing.
func encodeBody(v any) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		putBody(buf)
		return nil, err
	}
	return buf, nil
}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// writeJSON encodes v before anything goes on the wire, so a body that
// cannot be encoded answers 500 internal instead of its success status with
// no bytes.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf, err := encodeBody(v)
	if err != nil {
		code = http.StatusInternalServerError
		buf, _ = encodeBody(client.ErrorEnvelope{Error: client.ErrorInfo{Code: CodeInternal, Message: "encode response: " + err.Error()}})
	}
	writeBody(w, code, buf.Bytes())
	putBody(buf)
}

// writeBody answers with one JSON body in one Write under its Content-Length.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

// handleSubmit implements POST /v1/runs: decode, submit (dedup +
// backpressure live in the manager), answer with the run snapshot. A fresh
// run answers 202 + Location; a dedup hit answers 200 — with the cached
// terminal bytes when the absorbed run already finished, so identical
// submissions observe identical result bytes.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req client.RunRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decode request: %v", err)
		return
	}
	run, created, err := s.mgr.Submit(req)
	if err != nil {
		// writeAPIError recovers the envelope code (unknown_method, queue_full,
		// …) from the wrapped error; 503s carry a state-derived Retry-After.
		s.writeAPIError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/runs/"+run.ID)
	code := http.StatusAccepted
	if !created {
		code = http.StatusOK
		if body, etag := run.Cached(); body != nil {
			w.Header().Set("ETag", etag)
			writeBody(w, http.StatusOK, body)
			return
		}
	}
	st, _, _ := run.Snapshot()
	writeJSON(w, code, st)
}

// etagMatches implements If-None-Match per RFC 9110 §13.1.2: a
// comma-separated list of entity tags (weak prefixes compare equal for GET)
// or the wildcard "*".
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" || strings.TrimPrefix(part, "W/") == etag {
			return true
		}
	}
	return false
}

// List pagination bounds.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
	cursorPrefix     = "v1:" // versioned so a future cursor shape can coexist
)

// encodeCursor renders the opaque resume cursor: the last delivered run ID,
// versioned and base64-wrapped so clients treat it as a token, not a format.
func encodeCursor(lastID string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(cursorPrefix + lastID))
}

// decodeCursor inverts encodeCursor down to the run's sequence number, the
// position Registry.Page resumes after.
func decodeCursor(c string) (after int, err error) {
	raw, err := base64.RawURLEncoding.DecodeString(c)
	id, ok := strings.CutPrefix(string(raw), cursorPrefix)
	if after = runSeq(id); err != nil || !ok || after == 0 {
		return 0, codef(CodeInvalidCursor, "invalid cursor %q", c)
	}
	return after, nil
}

// handleList implements GET /v1/runs with filtering and keyset pagination:
// ?state= keeps one lifecycle state, ?limit= bounds the page (default 100,
// cap 1000), ?cursor= resumes after the previous page's last run. Run IDs
// are assigned in increasing order and the registry keeps runs in that order,
// so the cursor is a stable keyset position: runs finishing or expiring
// between pages never shift the window, and next_cursor appears only when
// more matching runs remain. The walk binary-searches the cursor and stops
// once the page is full — a page costs the runs it reads, not the registry.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var stateFilter State
	if v := strings.ToLower(strings.TrimSpace(q.Get("state"))); v != "" {
		switch st := State(v); st {
		case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
			stateFilter = st
		default:
			writeError(w, http.StatusBadRequest, CodeInvalidState,
				"unknown state %q (valid: queued, running, done, failed, cancelled)", v)
			return
		}
	}
	limit := defaultListLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "limit %q must be a positive integer", v)
			return
		}
		limit = min(n, maxListLimit)
	}
	after := 0
	if v := q.Get("cursor"); v != "" {
		var err error
		if after, err = decodeCursor(v); err != nil {
			s.writeAPIError(w, err)
			return
		}
	}

	page := client.RunPage{Runs: make([]client.RunListItem, 0, limit)}
	s.mgr.Registry().Page(after, func(run *Run) bool {
		item := run.listItem()
		if stateFilter != "" && item.State != string(stateFilter) {
			return true
		}
		if len(page.Runs) == limit {
			page.NextCursor = encodeCursor(page.Runs[limit-1].ID)
			return false
		}
		page.Runs = append(page.Runs, item)
		return true
	})
	writeJSON(w, http.StatusOK, page)
}

// handleMethods implements GET /v1/methods: the canonical method catalogue —
// names, aliases, descriptions, and which Settings knobs each method reads —
// so external drivers discover what they can put in a session or run request
// without hardcoding the registry.
func (s *Server) handleMethods(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"methods": hpo.MethodInfos()})
}

// handleRun implements GET /v1/runs/{id}. Terminal runs serve their cached
// bytes under a strong ETag; If-None-Match short-circuits to 304.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	run, ok := s.mgr.Registry().Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no run %q (expired or never submitted)", r.PathValue("id"))
		return
	}
	body, etag := run.Cached()
	if body == nil {
		st, _, _ := run.Snapshot()
		writeJSON(w, http.StatusOK, st)
		return
	}
	w.Header().Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// handleEvents streams a run's event history plus live events until the
// terminal event. Default framing is NDJSON (one JSON event per line);
// Accept: text/event-stream switches to SSE. Every SSE frame carries a
// monotonically increasing "id:" line (the event's Seq), and a reconnecting
// client that sends Last-Event-ID resumes after that sequence number instead
// of replaying the whole history — the event log is append-only, so
// filtering the replay by Seq is exact. The header is honored for NDJSON
// clients too.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	run, ok := s.mgr.Registry().Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no run %q (expired or never submitted)", r.PathValue("id"))
		return
	}
	// Resume cursor: replay only events with Seq > Last-Event-ID. Absent or
	// malformed headers replay from the start (afterSeq -1).
	afterSeq := -1
	if v := strings.TrimSpace(r.Header.Get("Last-Event-ID")); v != "" {
		if id, err := strconv.Atoi(v); err == nil && id >= 0 {
			afterSeq = id
		}
	}
	flusher, _ := w.(http.Flusher)
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)

	// One buffer per stream: each event is encoded into it (the same bytes
	// as json.Marshal plus a newline) and written in one call. Nothing is
	// flushed per event: the replay goes out in one flush, and each burst of
	// live events — everything already queued behind the first — in one more.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	writeEvent := func(e client.Event) bool {
		if e.Seq <= afterSeq {
			return true // already delivered on a previous connection
		}
		buf.Reset()
		if err := enc.Encode(e); err != nil {
			return false
		}
		if sse {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n", e.Seq, e.Type, buf.Bytes())
		} else {
			w.Write(buf.Bytes())
		}
		return true
	}
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	replay, live, cancel := run.Subscribe()
	defer cancel()
	for _, e := range replay {
		if !writeEvent(e) {
			return
		}
	}
	flush()
	for {
		select {
		case e, ok := <-live:
			if !ok {
				return // terminal event delivered; stream complete
			}
		burst:
			for ok {
				if !writeEvent(e) {
					return
				}
				select {
				case e, ok = <-live:
				default:
					break burst
				}
			}
			flush()
			if !ok {
				return
			}
		case <-r.Context().Done():
			return // client went away
		}
	}
}

// bankEntry is one row of GET /v1/banks.
type bankEntry struct {
	Key     string `json:"key"`
	Bytes   int64  `json:"bytes"`
	ModTime string `json:"mod_time"`
}

func (s *Server) handleBanks(w http.ResponseWriter, r *http.Request) {
	store := s.mgr.Store()
	if store == nil {
		writeJSON(w, http.StatusOK, map[string]any{"dir": "", "banks": []bankEntry{}})
		return
	}
	entries, err := store.Entries()
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "list banks: %v", err)
		return
	}
	out := make([]bankEntry, 0, len(entries))
	for _, e := range entries {
		out = append(out, bankEntry{
			Key: e.Key, Bytes: e.Bytes,
			ModTime: time.Unix(e.ModTime, 0).UTC().Format(time.RFC3339),
		})
	}
	st := store.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"dir":   store.Dir(),
		"banks": out,
		"stats": map[string]int64{
			"hits": st.Hits, "misses": st.Misses, "builds": st.Builds,
			"evicted": st.Evicted, "stale_format": st.StaleFormat,
			"corrupt_segment": st.CorruptSegment,
		},
	})
}

// handleBankGrow implements POST /v1/banks/{key}/grow: extend the served
// bank whose bank_key (the address a run records, not a /v1/banks entry)
// is key with {"add": n} freshly sampled configs. The bank's address
// advances (returned as new_key): later runs record it and a further grow
// must name it, while runs recorded under the old key keep theirs. Answers
// 404 when no suite serves a bank under that key — the old key after a
// grow included — since growth never cold-builds.
func (s *Server) handleBankGrow(w http.ResponseWriter, r *http.Request) {
	var req client.GrowBankRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decode request: %v", err)
		return
	}
	if req.Add < 1 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "add %d must be >= 1", req.Add)
		return
	}
	res, err := s.mgr.GrowBank(r.Context(), r.PathValue("key"), req.Add)
	switch {
	case err == nil:
	case errors.Is(err, ErrUnknownBank):
		writeError(w, http.StatusNotFound, CodeNotFound, "%v", err)
		return
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, "grow bank: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, client.GrowBankResult(res))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := client.Health{
		Status:     "ok",
		Uptime:     time.Since(s.start).Round(time.Millisecond).String(),
		RunsActive: s.mgr.active.Value(),
		RunsQueued: s.mgr.queued.Value(),
	}
	if jr := s.mgr.Journal(); jr != nil {
		h.Journal = client.HealthJournal{Enabled: true, Bytes: jr.Bytes(), MaxBytes: jr.MaxBytes()}
		if last := jr.Stats().LastCompact; !last.IsZero() {
			h.Journal.LastSnapshot = last.UTC().Format(time.RFC3339Nano)
		}
	}
	if store := s.mgr.Store(); store != nil {
		ms := store.Mapped()
		h.Banks = client.HealthBanks{
			Enabled: true, Dir: store.Dir(),
			MappedFiles: ms.Files, MappedBytes: ms.Bytes,
			Grows: s.mgr.grows.Value(), CorruptSegment: store.Stats().CorruptSegment,
		}
	}
	writeJSON(w, http.StatusOK, h)
}
