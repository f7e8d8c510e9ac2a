package obs

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders log severities. The zero value is LevelInfo, so a
// zero-configured logger does the right thing.
type Level int32

const (
	LevelDebug Level = iota - 1
	LevelInfo
	LevelWarn
	LevelError
)

// String renders the level as it appears in log lines.
func (l Level) String() string {
	switch {
	case l <= LevelDebug:
		return "debug"
	case l == LevelInfo:
		return "info"
	case l == LevelWarn:
		return "warn"
	default:
		return "error"
	}
}

// ParseLevel resolves a -log-level flag value.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "", "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (valid: debug, info, warn, error)", s)
}

// output is the shared sink behind a logger family: every Named/With child
// writes through the same writer, lock, and level gate.
type output struct {
	mu    sync.Mutex
	w     io.Writer
	lvl   atomic.Int32
	clock func() time.Time
}

// Logger emits structured key=value lines:
//
//	ts=2026-08-07T12:00:00.000000Z level=info component=serve msg="run admitted" run=run-000001
//
// Loggers are immutable handles over a shared sink; Named and With derive
// children cheaply. A nil *Logger is a valid no-op, so optional logging needs
// no branches at call sites.
type Logger struct {
	out       *output
	component string
	kv        []any // pre-bound alternating key/value pairs
}

// NewLogger creates a logger family writing to w at the given minimum level.
func NewLogger(w io.Writer, lvl Level) *Logger {
	out := &output{w: w, clock: time.Now}
	out.lvl.Store(int32(lvl))
	return &Logger{out: out}
}

// SetLevel changes the family's minimum level (affects every derived logger).
func (l *Logger) SetLevel(lvl Level) {
	if l == nil || l.out == nil {
		return
	}
	l.out.lvl.Store(int32(lvl))
}

// setClock injects a deterministic time source (tests only).
func (l *Logger) setClock(clock func() time.Time) {
	if l != nil && l.out != nil {
		l.out.clock = clock
	}
}

// Named derives a child tagged with a component name; nested names join with
// a dot ("serve.journal").
func (l *Logger) Named(name string) *Logger {
	if l == nil || l.out == nil {
		return nil
	}
	c := name
	if l.component != "" {
		c = l.component + "." + name
	}
	return &Logger{out: l.out, component: c, kv: l.kv}
}

// With derives a child carrying extra key/value pairs on every line.
func (l *Logger) With(kv ...any) *Logger {
	if l == nil || l.out == nil {
		return nil
	}
	merged := append(append([]any{}, l.kv...), kv...)
	return &Logger{out: l.out, component: l.component, kv: merged}
}

// Debug logs at debug level.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

// Logf logs a printf-formatted message at info level (the journal's
// operational lines are prose, not key=value events). Nil-safe like every
// other method, and a silent logger returns before formatting: the journal
// calls this on every compaction.
func (l *Logger) Logf(format string, args ...any) {
	if l == nil || l.out == nil || LevelInfo < Level(l.out.lvl.Load()) {
		return
	}
	l.log(LevelInfo, fmt.Sprintf(format, args...), nil)
}

func (l *Logger) log(lvl Level, msg string, kv []any) {
	if l == nil || l.out == nil || lvl < Level(l.out.lvl.Load()) {
		return
	}
	var buf bytes.Buffer
	buf.WriteString("ts=")
	buf.WriteString(l.out.clock().UTC().Format("2006-01-02T15:04:05.000000Z"))
	buf.WriteString(" level=")
	buf.WriteString(lvl.String())
	if l.component != "" {
		buf.WriteString(" component=")
		writeValue(&buf, l.component)
	}
	buf.WriteString(" msg=")
	writeValue(&buf, msg)
	writePairs(&buf, l.kv)
	writePairs(&buf, kv)
	buf.WriteByte('\n')
	l.out.mu.Lock()
	l.out.w.Write(buf.Bytes())
	l.out.mu.Unlock()
}

// writePairs renders alternating key/value pairs; a dangling key gets an
// explicit marker instead of silently vanishing.
func writePairs(buf *bytes.Buffer, kv []any) {
	for i := 0; i+1 < len(kv); i += 2 {
		buf.WriteByte(' ')
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprintf("%v", kv[i])
		}
		buf.WriteString(key)
		buf.WriteByte('=')
		writeValue(buf, kv[i+1])
	}
	if len(kv)%2 == 1 {
		buf.WriteString(" !badkey=")
		writeValue(buf, kv[len(kv)-1])
	}
}

// writeValue renders one value, quoting strings that would break the
// key=value grammar (spaces, quotes, equals, empties).
func writeValue(buf *bytes.Buffer, v any) {
	var s string
	switch x := v.(type) {
	case string:
		s = x
	case error:
		s = x.Error()
	case fmt.Stringer:
		s = x.String()
	default:
		s = fmt.Sprintf("%v", v)
	}
	if s == "" || strings.ContainsAny(s, " \t\n\"=") {
		buf.WriteString(strconv.Quote(s))
		return
	}
	buf.WriteString(s)
}
