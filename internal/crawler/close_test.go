package crawler

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestCloseReleasesConnections keeps several keep-alive connections in a
// session's pool and requires that, after Close, the server sees none of
// them still open.
func TestCloseReleasesConnections(t *testing.T) {
	var mu sync.Mutex
	open := map[net.Conn]bool{}
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("<html>ok</html>"))
	}))
	ts.Config.ConnState = func(c net.Conn, state http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch state {
		case http.StateNew:
			open[c] = true
		case http.StateClosed, http.StateHijacked:
			delete(open, c)
		}
	}
	ts.Start()
	defer ts.Close()
	openConns := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(open)
	}

	var d net.Dialer
	sess, err := NewSession(Config{
		DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
			return d.DialContext(ctx, network, ts.Listener.Addr().String())
		},
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	hosts := []string{"a.example", "b.example", "c.example"}
	for _, h := range hosts {
		if _, err := sess.Fetch(context.Background(), "http://"+h+"/", h, InitDocument, ""); err != nil {
			t.Fatal(err)
		}
	}
	if n := openConns(); n != len(hosts) {
		t.Fatalf("%d server connections before Close, want %d pooled", n, len(hosts))
	}
	sess.Close()
	// The server sees each close when its read returns, a moment later.
	n := openConns()
	for deadline := time.Now().Add(2 * time.Second); n > 0 && time.Now().Before(deadline); n = openConns() {
		time.Sleep(5 * time.Millisecond)
	}
	if n > 0 {
		t.Errorf("%d server connections still open after Close", n)
	}
	if got := len(sess.Log()); got != len(hosts) {
		t.Errorf("log has %d records after Close, want %d", got, len(hosts))
	}
}
