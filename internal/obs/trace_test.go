package obs

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

func TestTraceSpansAndSnapshot(t *testing.T) {
	tr := NewTrace("abc123")
	base := time.Date(2026, 8, 7, 10, 0, 0, 0, time.UTC)
	tr.AddSpan("queue.wait", base, 5*time.Millisecond)
	tr.AddSpan("bank.lookup", base.Add(5*time.Millisecond), time.Millisecond, "key", "k1", "hit", "true")
	// Out-of-order insert: snapshot must sort by start.
	tr.AddSpan("admit", base.Add(-time.Millisecond), 100*time.Microsecond)

	v := tr.Snapshot()
	if v.TraceID != "abc123" {
		t.Fatalf("trace id = %q", v.TraceID)
	}
	if len(v.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(v.Spans))
	}
	if v.Spans[0].Name != "admit" || v.Spans[1].Name != "queue.wait" || v.Spans[2].Name != "bank.lookup" {
		t.Fatalf("span order wrong: %v %v %v", v.Spans[0].Name, v.Spans[1].Name, v.Spans[2].Name)
	}
	if v.Spans[1].DurationMS != 5 {
		t.Fatalf("queue.wait duration_ms = %v, want 5", v.Spans[1].DurationMS)
	}
	if v.Spans[2].Attrs["key"] != "k1" || v.Spans[2].Attrs["hit"] != "true" {
		t.Fatalf("attrs not folded: %v", v.Spans[2].Attrs)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.AddSpan("x", time.Now(), time.Second)
	tr.Append(Span{Name: "y"})
	tr.StartSpan("z").End()
	if tr.ID() != "" {
		t.Fatal("nil trace ID should be empty")
	}
	v := tr.Snapshot()
	if v.Spans == nil || len(v.Spans) != 0 {
		t.Fatalf("nil trace snapshot = %+v, want empty non-nil spans", v)
	}
}

func TestSpanTimer(t *testing.T) {
	tr := NewTrace("t1")
	sp := tr.StartSpan("work", "shard", "0-8")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	v := tr.Snapshot()
	if len(v.Spans) != 1 || v.Spans[0].Name != "work" {
		t.Fatalf("snapshot = %+v", v)
	}
	if v.Spans[0].DurationMS < 1 {
		t.Fatalf("duration_ms = %v, want >= 1", v.Spans[0].DurationMS)
	}
	if v.Spans[0].Attrs["shard"] != "0-8" {
		t.Fatalf("attrs = %v", v.Spans[0].Attrs)
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("capped")
	for i := 0; i < maxSpansPerTrace+100; i++ {
		tr.AddSpan("s", time.Now(), 0)
	}
	if n := len(tr.Snapshot().Spans); n != maxSpansPerTrace {
		t.Fatalf("spans = %d, want capped at %d", n, maxSpansPerTrace)
	}
}

func TestWireSpansRoundTrip(t *testing.T) {
	start := time.Unix(0, 1722945600123456789)
	in := []Span{
		{Name: "shard.train", Start: start, Dur: 42 * time.Millisecond, Attrs: []string{"worker", "w1", "range", "0-32"}},
		{Name: "pop.fetch", Start: start.Add(time.Second), Dur: time.Millisecond},
	}
	enc, err := MarshalSpans(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalSpans(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("round trip lost spans: %d", len(out))
	}
	if out[0].Name != "shard.train" || !out[0].Start.Equal(start) || out[0].Dur != 42*time.Millisecond {
		t.Fatalf("span 0 mismatch: %+v", out[0])
	}
	want := map[string]string{"worker": "w1", "range": "0-32"}
	got := map[string]string{}
	for i := 0; i+1 < len(out[0].Attrs); i += 2 {
		got[out[0].Attrs[i]] = out[0].Attrs[i+1]
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("attr %s = %q, want %q", k, got[k], v)
		}
	}
	if spans, err := UnmarshalSpans(""); err != nil || spans != nil {
		t.Fatalf("empty header: %v, %v", spans, err)
	}
	if _, err := UnmarshalSpans("{notjson"); err == nil {
		t.Fatal("garbage header should error")
	}
}

// FuzzTraceSpans feeds arbitrary X-Trace-Spans header values to
// UnmarshalSpans: it must never panic, and whatever it accepts must be a
// fixed point of MarshalSpans then UnmarshalSpans.
func FuzzTraceSpans(f *testing.F) {
	start := time.Unix(0, 1722945600123456789)
	enc, err := MarshalSpans([]Span{
		{Name: "shard.train", Start: start, Dur: 42 * time.Millisecond, Attrs: []string{"worker", "w1", "range", "0-32"}},
		{Name: "pop.fetch", Start: start.Add(time.Second), Dur: time.Millisecond},
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{enc, "", "[]", "null", "[null]", `[{"name":"a","attrs":{"k":"v","":""}}]`,
		`[{"NAME":"x","start_unix_nano":-1,"dur_nanos":9223372036854775807}]`, "[{\"name\":\"\xff\\u0000\"}]", "{notjson"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, header string) {
		spans, err := UnmarshalSpans(header)
		if err != nil {
			return
		}
		enc, err := MarshalSpans(spans)
		if err != nil {
			t.Fatalf("re-encode of %q: %v", header, err)
		}
		back, err := UnmarshalSpans(enc)
		if err != nil {
			t.Fatalf("decode of re-encoded %q: %v", enc, err)
		}
		if len(back) != len(spans) {
			t.Fatalf("%d spans became %d through %q", len(spans), len(back), enc)
		}
		for i := range spans {
			if !reflect.DeepEqual(spans[i], back[i]) {
				t.Fatalf("span %d: %+v became %+v through %q", i, spans[i], back[i], enc)
			}
		}
	})
}

func TestContextPropagation(t *testing.T) {
	tr := NewTrace("ctx1")
	ctx := WithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatal("TraceFrom lost the trace")
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatalf("empty ctx yielded %v", got)
	}
	if got := TraceFrom(nil); got != nil { //nolint:staticcheck // nil ctx tolerance is the point
		t.Fatalf("nil ctx yielded %v", got)
	}
	if ctx2 := WithTrace(context.Background(), nil); TraceFrom(ctx2) != nil {
		t.Fatal("nil trace should not be stored")
	}
}

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 32 || a == b {
		t.Fatalf("trace IDs: %q, %q", a, b)
	}
}

func TestTraceStore(t *testing.T) {
	s := NewTraceStore(3)
	for i := 0; i < 5; i++ {
		s.Put(fmt.Sprintf("run-%d", i), NewTrace(fmt.Sprintf("t%d", i)))
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	if _, ok := s.Get("run-0"); ok {
		t.Fatal("run-0 should have been evicted")
	}
	if tr, ok := s.Get("run-4"); !ok || tr.ID() != "t4" {
		t.Fatalf("run-4 missing or wrong: %v %v", tr, ok)
	}
	// Re-put refreshes position: run-2 survives the next eviction.
	tr2, _ := s.Get("run-2")
	s.Put("run-2", tr2)
	s.Put("run-5", NewTrace("t5"))
	if _, ok := s.Get("run-2"); !ok {
		t.Fatal("refreshed run-2 evicted")
	}
	if _, ok := s.Get("run-3"); ok {
		t.Fatal("run-3 should have been evicted after refresh")
	}

	var nilStore *TraceStore
	nilStore.Put("x", NewTrace("x"))
	if _, ok := nilStore.Get("x"); ok || nilStore.Len() != 0 {
		t.Fatal("nil store should be inert")
	}
}
