package crawler

import (
	"context"
	"testing"
	"time"

	"pornweb/internal/obs"
	"pornweb/internal/webgen"
	"pornweb/internal/webserver"
)

// benchSession builds a session against an in-memory ecosystem, wired to
// reg (nil = uninstrumented) and returns it with a responsive porn host.
func benchSession(b *testing.B, reg *obs.Registry) (*Session, string) {
	b.Helper()
	eco := webgen.Generate(webgen.Params{Seed: 7, Scale: 0.02})
	srv, err := webserver.Start(eco)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	sess, err := NewSession(Config{
		DialContext: srv.DialContext,
		RootCAs:     srv.CertPool(),
		Country:     "ES",
		Timeout:     5 * time.Second,
		Metrics:     reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sess.Close)
	var host string
	for _, s := range eco.PornSites {
		if !s.Flaky && !s.Unresponsive {
			host = s.Host
			break
		}
	}
	if host == "" {
		b.Fatal("no responsive site in benchmark ecosystem")
	}
	return sess, host
}

// benchFetch measures the full crawler request path end to end over
// the in-memory transport: dial, request, response read, redirect
// handling, logging.
func benchFetch(b *testing.B, reg *obs.Registry) {
	sess, host := benchSession(b, reg)
	url := "http://" + host + "/"
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Fetch(ctx, url, host, InitDocument, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFetchInstrumented(b *testing.B)   { benchFetch(b, obs.NewRegistry()) }
func BenchmarkFetchUninstrumented(b *testing.B) { benchFetch(b, nil) }

// benchRecordPath isolates the per-request metrics work the session adds
// on top of logging: one histogram observation, a status-class counter
// and a cookie counter — the exact calls doOne/record make per request.
// With a nil registry every instrument is a nil pointer and each call is
// a single nil check, so the disabled variant bounds the overhead an
// uninstrumented crawl pays.
func benchRecordPath(b *testing.B, reg *obs.Registry) {
	met := newSessionMetrics(reg, "ES")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		met.latency.Observe(0.012)
		met.byClass[statusClassIdx(200)].Inc()
		met.cookies.Add(2)
	}
}

func BenchmarkRecordPathInstrumented(b *testing.B) { benchRecordPath(b, obs.NewRegistry()) }
func BenchmarkRecordPathDisabled(b *testing.B)     { benchRecordPath(b, nil) }
