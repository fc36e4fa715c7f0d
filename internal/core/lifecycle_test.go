package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"pornweb/internal/webgen"
)

// TestCloseAfterRunReleasesEverything runs a small study and requires
// Close to be prompt and to leave nothing behind: every crawl stage has
// closed its session's connections, so the server has no connection to
// wait on, and the goroutines the run started have all exited.
func TestCloseAfterRunReleasesEverything(t *testing.T) {
	const slack = 5
	before := runtime.NumGoroutine()
	st, err := NewStudy(Config{Params: webgen.Params{Seed: 11, Scale: 0.004}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(context.Background()); err != nil {
		st.Close()
		t.Fatal(err)
	}
	start := time.Now()
	st.Close()
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Errorf("Close took %v, want under 250ms", took)
	}
	// Connection goroutines exit once they see their socket closed, a
	// moment after Close returns.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > before+slack && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > before+slack {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after Close, %d before NewStudy; still running:\n%s",
			n, before, buf[:runtime.Stack(buf, true)])
	}
}
