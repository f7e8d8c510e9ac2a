package obs

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func fixedClock() time.Time {
	return time.Date(2026, 8, 7, 12, 0, 0, 123456000, time.UTC)
}

func TestLoggerLineFormat(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug)
	l.setClock(fixedClock)

	l.Named("serve").Info("run admitted", "run", "run-000001", "class", "cold")
	got := buf.String()
	want := `ts=2026-08-07T12:00:00.123456Z level=info component=serve msg="run admitted" run=run-000001 class=cold` + "\n"
	if got != want {
		t.Fatalf("line mismatch:\n got: %q\nwant: %q", got, want)
	}
}

func TestLoggerQuotingAndValueKinds(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug)
	l.setClock(fixedClock)

	l.Error("bad things", "err", errors.New("open /tmp/x: no such file"), "count", 3, "empty", "", "eq", "a=b")
	got := buf.String()
	for _, want := range []string{
		`level=error`,
		`msg="bad things"`,
		`err="open /tmp/x: no such file"`,
		`count=3`,
		`empty=""`,
		`eq="a=b"`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("line %q missing %q", got, want)
		}
	}
}

func TestLoggerLevelGate(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelWarn)
	l.Debug("nope")
	l.Info("nope")
	if buf.Len() != 0 {
		t.Fatalf("info/debug leaked through warn gate: %q", buf.String())
	}
	l.Warn("yes")
	l.Error("yes")
	if n := strings.Count(buf.String(), "\n"); n != 2 {
		t.Fatalf("want 2 lines, got %d: %q", n, buf.String())
	}
	// SetLevel affects derived loggers too (shared sink).
	child := l.Named("x")
	l.SetLevel(LevelDebug)
	buf.Reset()
	child.Debug("now visible")
	if !strings.Contains(buf.String(), "msg="+`"now visible"`) {
		t.Fatalf("SetLevel did not propagate to child: %q", buf.String())
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Info("ignored", "k", "v")
	l.Warn("ignored")
	l.Logf("ignored %d", 1)
	// A silent logger must not pay for formatting (the journal logs on every
	// compaction, with or without a logger).
	if n := testing.AllocsPerRun(10, func() { l.Logf("ignored %s", "x") }); n != 0 {
		t.Errorf("Logf on a nil logger allocates %v times, want 0", n)
	}
	if got := l.Named("x"); got != nil {
		t.Fatalf("Named on nil = %v, want nil", got)
	}
	if got := l.With("k", "v"); got != nil {
		t.Fatalf("With on nil = %v, want nil", got)
	}
}

func TestLoggerNamedNestingAndWith(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug)
	l.setClock(fixedClock)

	l.Named("serve").Named("journal").With("node", "a").Info("compacted", "bytes", 512)
	got := buf.String()
	for _, want := range []string{"component=serve.journal", "node=a", "bytes=512"} {
		if !strings.Contains(got, want) {
			t.Errorf("line %q missing %q", got, want)
		}
	}
}

func TestLoggerOddPairs(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug)
	l.Info("msg", "dangling")
	if !strings.Contains(buf.String(), "!badkey=dangling") {
		t.Fatalf("dangling key not marked: %q", buf.String())
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "": LevelInfo,
		"warn": LevelWarn, "WARNING": LevelWarn, "Error": LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) should error")
	}
}

func TestLoggerConcurrentLinesAtomic(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Info("tick", "goroutine", n, "j", j)
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 16*50 {
		t.Fatalf("want %d lines, got %d", 16*50, len(lines))
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, "ts=") || !strings.Contains(ln, "msg=tick") {
			t.Fatalf("torn line: %q", ln)
		}
	}
}
