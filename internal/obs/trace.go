package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// HTTP header names carrying trace context across the dist lease wire: the
// coordinator hands workers the trace ID with each leased job, and workers
// return their shard spans on completion so they attach to the build's
// trace on the coordinator.
const (
	TraceIDHeader    = "X-Trace-Id"
	TraceSpansHeader = "X-Trace-Spans"
)

// Span is one timed phase of a run or build. Attrs alternate key, value —
// the same convention as slog's key/value pairs — so recording a span on the hot path
// allocates nothing beyond the variadic slice the caller already builds.
type Span struct {
	Name  string
	Start time.Time
	Dur   time.Duration
	Attrs []string
}

// Trace accumulates the spans of one run under a single trace ID. All
// methods are safe for concurrent use and nil-safe: instrumented paths that
// sometimes run without a trace (recovered runs, CLI tools) need no guards.
type Trace struct {
	id string

	mu    sync.Mutex
	spans []Span
}

// maxSpansPerTrace bounds a single trace's memory; past it, spans drop.
const maxSpansPerTrace = 512

// NewTrace creates a trace with the given ID (NewTraceID() for a fresh one).
func NewTrace(id string) *Trace { return &Trace{id: id} }

// NewTraceID returns a 16-byte random hex trace ID.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure means the process is in a bad way; a
		// constant ID keeps tracing functional rather than panicking.
		return "trace-rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// ID returns the trace ID ("" for nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// AddSpan records a completed span.
func (t *Trace) AddSpan(name string, start time.Time, dur time.Duration, attrs ...string) {
	if t == nil {
		return
	}
	t.append(Span{Name: name, Start: start, Dur: dur, Attrs: attrs})
}

// Append attaches already-built spans (e.g. spans unmarshalled from a
// worker's X-Trace-Spans header).
func (t *Trace) Append(spans ...Span) {
	if t == nil {
		return
	}
	for _, s := range spans {
		t.append(s)
	}
}

func (t *Trace) append(s Span) {
	t.mu.Lock()
	if len(t.spans) < maxSpansPerTrace {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// SpanTimer is an in-progress span; End records it. A nil timer's End is a
// no-op, so `defer t.StartSpan("x").End()` works with a nil trace.
type SpanTimer struct {
	t     *Trace
	name  string
	start time.Time
	attrs []string
}

// StartSpan begins a span now; call End on the returned timer.
func (t *Trace) StartSpan(name string, attrs ...string) *SpanTimer {
	if t == nil {
		return nil
	}
	return &SpanTimer{t: t, name: name, start: time.Now(), attrs: attrs}
}

// End completes the span and records it on the trace.
func (s *SpanTimer) End() {
	if s == nil {
		return
	}
	s.t.AddSpan(s.name, s.start, time.Since(s.start), s.attrs...)
}

// SpanView is the JSON shape of one span as served by /v1/runs/{id}/trace.
type SpanView struct {
	Name       string            `json:"name"`
	Start      string            `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// TraceView is the JSON shape of a full trace timeline.
type TraceView struct {
	TraceID string     `json:"trace_id"`
	Spans   []SpanView `json:"spans"`
}

// Snapshot renders the trace for serving: spans sorted by start time,
// attrs folded into maps. Safe on nil (empty view).
func (t *Trace) Snapshot() TraceView {
	v := TraceView{Spans: []SpanView{}}
	if t == nil {
		return v
	}
	v.TraceID = t.id
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	for _, s := range spans {
		sv := SpanView{
			Name:       s.Name,
			Start:      s.Start.UTC().Format(time.RFC3339Nano),
			DurationMS: float64(s.Dur) / float64(time.Millisecond),
		}
		if len(s.Attrs) >= 2 {
			sv.Attrs = make(map[string]string, len(s.Attrs)/2)
			for i := 0; i+1 < len(s.Attrs); i += 2 {
				sv.Attrs[s.Attrs[i]] = s.Attrs[i+1]
			}
		}
		v.Spans = append(v.Spans, sv)
	}
	return v
}

// wireSpan is the JSON encoding of a span inside the X-Trace-Spans header.
type wireSpan struct {
	Name      string            `json:"name"`
	StartUnix int64             `json:"start_unix_nano"`
	DurNanos  int64             `json:"dur_nanos"`
	Attrs     map[string]string `json:"attrs,omitempty"`
}

// MarshalSpans encodes spans for the X-Trace-Spans header (compact JSON —
// header-safe because JSON strings escape control characters).
func MarshalSpans(spans []Span) (string, error) {
	ws := make([]wireSpan, 0, len(spans))
	for _, s := range spans {
		w := wireSpan{Name: s.Name, StartUnix: s.Start.UnixNano(), DurNanos: int64(s.Dur)}
		if len(s.Attrs) >= 2 {
			w.Attrs = make(map[string]string, len(s.Attrs)/2)
			for i := 0; i+1 < len(s.Attrs); i += 2 {
				w.Attrs[s.Attrs[i]] = s.Attrs[i+1]
			}
		}
		ws = append(ws, w)
	}
	b, err := json.Marshal(ws)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// UnmarshalSpans decodes an X-Trace-Spans header value.
func UnmarshalSpans(s string) ([]Span, error) {
	if s == "" {
		return nil, nil
	}
	var ws []wireSpan
	if err := json.Unmarshal([]byte(s), &ws); err != nil {
		return nil, err
	}
	spans := make([]Span, 0, len(ws))
	for _, w := range ws {
		sp := Span{Name: w.Name, Start: time.Unix(0, w.StartUnix), Dur: time.Duration(w.DurNanos)}
		if len(w.Attrs) > 0 {
			keys := make([]string, 0, len(w.Attrs))
			for k := range w.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				sp.Attrs = append(sp.Attrs, k, w.Attrs[k])
			}
		}
		spans = append(spans, sp)
	}
	return spans, nil
}

// ctxKey is the context key for trace propagation.
type ctxKey struct{}

// WithTrace returns a context carrying t.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFrom extracts the trace from ctx (nil when absent — every Trace
// method tolerates that).
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// TraceStore retains finished-run traces FIFO up to a cap, so
// /v1/runs/{id}/trace can serve timelines after runs complete without
// unbounded growth.
type TraceStore struct {
	mu    sync.Mutex
	max   int
	m     map[string]*Trace
	order []string
}

// NewTraceStore creates a store bounded to max traces (<=0 means 1024).
func NewTraceStore(max int) *TraceStore {
	if max <= 0 {
		max = 1024
	}
	return &TraceStore{max: max, m: make(map[string]*Trace)}
}

// Put stores t under key, evicting the oldest entries past the cap.
// Re-putting an existing key refreshes its position.
func (s *TraceStore) Put(key string, t *Trace) {
	if s == nil || t == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[key]; ok {
		for i, k := range s.order {
			if k == key {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	s.m[key] = t
	s.order = append(s.order, key)
	for len(s.order) > s.max {
		delete(s.m, s.order[0])
		s.order = s.order[1:]
	}
}

// Get returns the trace stored under key, if any.
func (s *TraceStore) Get(key string) (*Trace, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.m[key]
	return t, ok
}

// Len returns the number of retained traces.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}
