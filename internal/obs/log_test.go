package obs

import (
	"log"
	"strings"
	"sync"
	"testing"
)

// syncBuffer is a goroutine-safe strings.Builder for log output.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestLoggerLevelsAndComponent(t *testing.T) {
	var buf syncBuffer
	l := NewLogger(&buf, LevelInfo).WithComponent("crawler")
	l.Debugf("hidden %d", 1)
	l.Infof("visible %d", 2)
	l.Errorf("broken %s", "x")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Error("debug line leaked at info level")
	}
	if !strings.Contains(out, "INFO  [crawler] visible 2") {
		t.Errorf("missing info line in %q", out)
	}
	if !strings.Contains(out, "ERROR [crawler] broken x") {
		t.Errorf("missing error line in %q", out)
	}
}

func TestLoggerEvent(t *testing.T) {
	var buf syncBuffer
	l := NewLogger(&buf, LevelDebug)
	l.Event(LevelWarn, "handshake failed", "host", "x.com", "err", "no tls")
	if !strings.Contains(buf.String(), "handshake failed host=x.com err=no tls") {
		t.Errorf("bad event rendering: %q", buf.String())
	}
}

func TestLoggerCounters(t *testing.T) {
	reg := NewRegistry()
	l := NewLogger(nil, LevelInfo).CountIn(reg)
	l.Infof("a")
	l.Warnf("b")
	l.Warnf("c")
	l.Debugf("below threshold, not counted")
	if v := reg.Counter("log_lines_total", "level", "info").Value(); v != 1 {
		t.Errorf("info lines = %d, want 1", v)
	}
	if v := reg.Counter("log_lines_total", "level", "warn").Value(); v != 2 {
		t.Errorf("warn lines = %d, want 2", v)
	}
	if v := reg.Counter("log_lines_total", "level", "debug").Value(); v != 0 {
		t.Errorf("debug lines = %d, want 0", v)
	}
}

func TestStdWriterCountsSquelchedLines(t *testing.T) {
	reg := NewRegistry()
	var buf syncBuffer
	l := NewLogger(&buf, LevelInfo) // debug lines not printed
	c := reg.Counter("errors_total")
	std := log.New(l.StdWriter(LevelDebug, c), "", 0)
	std.Print("tls handshake error: no cert")
	std.Print("another")
	if c.Value() != 2 {
		t.Fatalf("counted %d error-log lines, want 2", c.Value())
	}
	if buf.String() != "" {
		t.Fatalf("debug-level lines printed at info threshold: %q", buf.String())
	}
}

func TestNilLoggerSafe(t *testing.T) {
	var l *Logger
	l.Infof("x")
	l.Event(LevelError, "y", "k", "v")
	l = l.WithComponent("c").CountIn(NewRegistry())
	if l != nil {
		t.Fatal("nil logger must stay nil through With*")
	}
	w := (*Logger)(nil).StdWriter(LevelInfo, nil)
	if _, err := w.Write([]byte("z")); err != nil {
		t.Fatal(err)
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "bogus": LevelInfo, "": LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestLoggerConcurrent(t *testing.T) {
	var buf syncBuffer
	reg := NewRegistry()
	l := NewLogger(&buf, LevelInfo).CountIn(reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Infof("g%d line %d", g, i)
			}
		}(g)
	}
	wg.Wait()
	if v := reg.Counter("log_lines_total", "level", "info").Value(); v != 800 {
		t.Fatalf("counted %d lines, want 800", v)
	}
	if got := strings.Count(buf.String(), "\n"); got != 800 {
		t.Fatalf("wrote %d lines, want 800", got)
	}
}
