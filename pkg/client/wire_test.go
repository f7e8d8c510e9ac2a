package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// bodyTransport answers every request with 200 and body as an NDJSON events
// stream, in memory: the client's own buffers are all that run.
type bodyTransport struct{ body []byte }

func (bt bodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {"application/x-ndjson"}},
		Body:          io.NopCloser(bytes.NewReader(bt.body)),
		ContentLength: -1,
		Request:       req,
	}, nil
}

// memClient is a client whose every call reads body.
func memClient(body []byte) *Client {
	c := New("http://noisyevald.invalid")
	c.HTTPClient = &http.Client{Transport: bodyTransport{body}}
	c.Retry = NoRetry()
	return c
}

// fiveEvents is a two-trial run's event stream as the daemon writes it.
const fiveEvents = `{"seq":0,"type":"state","state":"queued"}
{"seq":1,"type":"state","state":"running"}
{"seq":2,"type":"trial","trial":{"index":1,"completed":1,"total":2,"final_err":0.7241379310344828}}
{"seq":3,"type":"trial","trial":{"index":0,"completed":2,"total":2,"final_err":0.6896551724137931}}
{"seq":4,"type":"state","state":"done"}
`

func collect(c *Client) ([]Event, error) {
	var got []Event
	err := c.StreamEvents(context.Background(), "run-000001", -1, func(e Event) error {
		got = append(got, e)
		return nil
	})
	return got, err
}

func TestStreamEventsLongLines(t *testing.T) {
	long := strings.Repeat("x", 200<<10) // over the scanner's 4 KiB start, under its 1 MiB cap
	line := fmt.Sprintf(`{"seq":0,"type":"state","state":"failed","error":%q}`+"\n", long)
	got, err := collect(memClient([]byte(line)))
	if err != nil || len(got) != 1 || got[0].Error != long {
		t.Fatalf("200 KiB line: %d events, err %v", len(got), err)
	}

	huge := fmt.Sprintf(`{"seq":0,"type":"state","error":%q}`+"\n", strings.Repeat("x", 1<<20))
	if _, err := collect(memClient([]byte(huge))); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over 1 MiB: err %v, want %v", err, bufio.ErrTooLong)
	}
}

// TestShortBodyFails serves a body shorter than its declared Content-Length
// and closes the connection: the call fails promptly instead of blocking or
// decoding a truncated document.
func TestShortBodyFails(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"id\":\"run-000001\"")
		buf.Flush()
	}))
	defer ts.Close()
	c := New(ts.URL)
	c.Retry = NoRetry()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := c.GetRun(ctx, "run-000001")
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: err %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

// TestStreamEventsAllocs bounds what one five-event stream allocates. The
// scanner's buffer starts at 4 KiB; a 64 KiB preallocation per stream
// fails this bound on its own.
func TestStreamEventsAllocs(t *testing.T) {
	c := memClient([]byte(fiveEvents))
	if got, err := collect(c); err != nil || len(got) != 5 {
		t.Fatalf("%d events, err %v", len(got), err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := c.StreamEvents(context.Background(), "run-000001", -1, func(Event) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 16<<10 {
		t.Errorf("one five-event stream allocates %d B, want < 16 KiB", per)
	}
}

// FuzzClientEvents serves arbitrary bytes as an NDJSON events body:
// StreamEvents returns events or an error, never panics or hangs, and when
// it succeeds every line decoded into exactly one event.
func FuzzClientEvents(f *testing.F) {
	f.Add([]byte(fiveEvents))
	f.Add([]byte(""))
	f.Add([]byte("\n"))
	f.Add([]byte(`{"seq":0,"type":"state","state":"queued"}`))
	f.Add([]byte("{\"seq\":0,\"type\":\"trial\",\"trial\":null}\r\n{\"seq\":1}\n"))
	f.Add([]byte(`{"seq":"0"}` + "\n"))
	f.Add([]byte(`{"seq":0,"trial":{"index":1e400}}` + "\n"))
	f.Add([]byte("[1,2,3]\n{}\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := collect(memClient(body))
		if err != nil {
			return
		}
		lines := bytes.Count(body, []byte("\n"))
		if len(body) > 0 && body[len(body)-1] != '\n' {
			lines++
		}
		if len(got) != lines {
			t.Fatalf("%d events from %d lines, no error", len(got), lines)
		}
		for _, e := range got {
			if _, err := json.Marshal(e); err != nil {
				t.Fatalf("decoded event %+v does not re-encode: %v", e, err)
			}
		}
	})
}
