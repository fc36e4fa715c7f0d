package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level is a log severity.
type Level int32

// Severities, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the canonical lower-case level name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return "unknown"
}

// ParseLevel maps a level name to its Level (defaulting to info).
func ParseLevel(s string) Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	default:
		return LevelInfo
	}
}

// Logger is a leveled, structured logger: levels, component tags,
// per-level counters in a Registry, and an io.Writer adapter for
// libraries (net/http) that want a *log.Logger. A nil *Logger discards
// everything.
type Logger struct {
	mu        sync.Mutex
	out       io.Writer
	min       Level
	component string
	lines     [4]*Counter // per-level emitted-line counters
}

// NewLogger writes lines at or above min to out (nil out discards).
func NewLogger(out io.Writer, min Level) *Logger {
	if out == nil {
		out = io.Discard
	}
	return &Logger{out: out, min: min}
}

// clone copies the logger's configuration (not its mutex).
func (l *Logger) clone() *Logger {
	return &Logger{out: l.out, min: l.min, component: l.component, lines: l.lines}
}

// WithComponent returns a logger tagging every line with a [component].
func (l *Logger) WithComponent(name string) *Logger {
	if l == nil {
		return nil
	}
	c := l.clone()
	c.component = name
	return c
}

// CountIn returns a logger whose emitted lines increment
// log_lines_total{level=...} in reg, so error rates are measurable, not
// just printed.
func (l *Logger) CountIn(reg *Registry) *Logger {
	if l == nil || reg == nil {
		return l
	}
	c := l.clone()
	for lv := LevelDebug; lv <= LevelError; lv++ {
		c.lines[lv] = reg.Counter("log_lines_total", "level", lv.String())
	}
	return c
}

// Enabled reports whether level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.min
}

func (l *Logger) emit(level Level, msg string) {
	if !l.Enabled(level) {
		return
	}
	l.lines[level].Inc()
	tag := ""
	if l.component != "" {
		tag = " [" + l.component + "]"
	}
	line := fmt.Sprintf("%s %-5s%s %s\n",
		time.Now().Format("2006-01-02T15:04:05.000"), strings.ToUpper(level.String()), tag, msg)
	l.mu.Lock()
	io.WriteString(l.out, line)
	l.mu.Unlock()
}

// Event logs a structured message: a static msg followed by alternating
// key/value attribute pairs rendered as key=value.
func (l *Logger) Event(level Level, msg string, kv ...any) {
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	b.WriteString(msg)
	for i := 0; i+1 < len(kv); i += 2 {
		fmt.Fprintf(&b, " %v=%v", kv[i], kv[i+1])
	}
	if len(kv)%2 != 0 {
		fmt.Fprintf(&b, " %v=?", kv[len(kv)-1])
	}
	l.emit(level, b.String())
}

// Debugf logs a formatted line at debug level.
func (l *Logger) Debugf(format string, args ...any) { l.logf(LevelDebug, format, args...) }

// Infof logs a formatted line at info level.
func (l *Logger) Infof(format string, args ...any) { l.logf(LevelInfo, format, args...) }

// Warnf logs a formatted line at warn level.
func (l *Logger) Warnf(format string, args ...any) { l.logf(LevelWarn, format, args...) }

// Errorf logs a formatted line at error level.
func (l *Logger) Errorf(format string, args ...any) { l.logf(LevelError, format, args...) }

func (l *Logger) logf(level Level, format string, args ...any) {
	if !l.Enabled(level) {
		return
	}
	l.emit(level, fmt.Sprintf(format, args...))
}

// levelWriter adapts the logger to io.Writer for use as a *log.Logger
// backend; every Write becomes one logged line (plus an optional counter
// increment even when the level is squelched).
type levelWriter struct {
	l     *Logger
	level Level
	count *Counter
}

func (w levelWriter) Write(p []byte) (int, error) {
	w.count.Inc()
	w.l.logf(w.level, "%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// StdWriter returns an io.Writer that logs each written line at level and
// increments count (which may be nil) on every line regardless of level —
// the adapter net/http's ErrorLog needs so server-side errors are counted
// even when not printed.
func (l *Logger) StdWriter(level Level, count *Counter) io.Writer {
	return levelWriter{l: l, level: level, count: count}
}
