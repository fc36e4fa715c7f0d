package crawler

import (
	"context"
	"testing"
	"time"

	"pornweb/internal/obs"
	"pornweb/internal/webgen"
	"pornweb/internal/webserver"
)

// TestVisitStatsAggregation pins the per-site stats the flight recorder
// reads: after a page fetch, the visited site's aggregate must reflect
// the log — request count, byte volume, received cookies.
func TestVisitStatsAggregation(t *testing.T) {
	sess, eco := testSession(t, "ES", "crawl")
	site := alive(eco)
	if site == nil {
		t.Fatal("no alive site")
	}
	if _, _, err := sess.FetchPage(context.Background(), site.Host, "/"); err != nil {
		t.Fatal(err)
	}
	st := sess.VisitStats(site.Host)
	log := sess.Log()
	var wantReq, wantCookies int
	var wantBytes int64
	for _, r := range log {
		if r.SiteHost != site.Host {
			continue
		}
		wantReq++
		wantCookies += len(r.SetCookies)
		wantBytes += int64(r.Bytes)
	}
	if st.Requests != wantReq || st.Requests == 0 {
		t.Errorf("Requests = %d, want %d (nonzero)", st.Requests, wantReq)
	}
	if st.Cookies != wantCookies || st.Cookies == 0 {
		t.Errorf("Cookies = %d, want %d (landing page sets cookies)", st.Cookies, wantCookies)
	}
	if st.Bytes != wantBytes || st.Bytes == 0 {
		t.Errorf("Bytes = %d, want %d (nonzero)", st.Bytes, wantBytes)
	}
	// Only the landing host was contacted, so nothing is third-party yet.
	if st.ThirdParty != 0 {
		t.Errorf("ThirdParty = %d after a landing-page-only fetch", st.ThirdParty)
	}
	// An unvisited site has the zero value.
	if got := sess.VisitStats("never-visited.example"); got != (VisitStats{}) {
		t.Errorf("unvisited site stats = %+v, want zero", got)
	}
}

// TestRecordBytes pins that every successful response logs its body size.
func TestRecordBytes(t *testing.T) {
	sess, eco := testSession(t, "ES", "crawl")
	site := alive(eco)
	if site == nil {
		t.Fatal("no alive site")
	}
	if _, _, err := sess.FetchPage(context.Background(), site.Host, "/"); err != nil {
		t.Fatal(err)
	}
	for _, r := range sess.Log() {
		if r.Status == 200 && r.Bytes == 0 {
			t.Errorf("200 response for %s logged zero bytes", r.URL)
		}
	}
}

// TestSessionFlightAccessor pins the wiring: the session exposes the
// configured recorder, and a session without one returns a nil (disabled)
// recorder that is safe to use.
func TestSessionFlightAccessor(t *testing.T) {
	sess, _ := testSession(t, "ES", "crawl")
	if sess.Flight() != nil {
		t.Error("session without a flight recorder returned a non-nil one")
	}
	if sess.Flight().Enabled() {
		t.Error("nil flight recorder reports enabled")
	}

	eco := webgen.Generate(webgen.Params{Seed: 7, Scale: 0.02})
	srv, err := webserver.Start(eco)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	fr := obs.NewFlightRecorder(64, 1, nil)
	wired, err := NewSession(Config{
		DialContext: srv.DialContext,
		RootCAs:     srv.CertPool(),
		Country:     "ES",
		Timeout:     5 * time.Second,
		Flight:      fr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wired.Close()
	if wired.Flight() != fr {
		t.Error("session did not expose the configured flight recorder")
	}
}
