package browser

import (
	"context"
	"testing"
	"time"

	"pornweb/internal/crawler"
	"pornweb/internal/obs"
	"pornweb/internal/webgen"
)

// flightBrowser builds a browser that feeds the given recorder.
func (f *fixture) flightBrowser(t *testing.T, fr *obs.FlightRecorder) *Browser {
	t.Helper()
	sess, err := crawler.NewSession(crawler.Config{
		DialContext: f.srv.DialContext,
		RootCAs:     f.srv.CertPool(),
		Country:     "ES",
		Phase:       "crawl",
		Timeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	b := New(sess)
	b.Flight = fr
	return b
}

// TestVisitWithoutFlightRecorder pins the disabled wiring: a browser
// carries no recorder unless one is set, and visits through its nil
// (disabled) recorder work and record nothing.
func TestVisitWithoutFlightRecorder(t *testing.T) {
	f := setup(t)
	b := f.flightBrowser(t, nil)
	if b.Flight != nil || b.Flight.Enabled() {
		t.Fatal("browser without a flight recorder has an enabled one")
	}
	site := pick(t, f.eco, func(s *webgen.Site) bool { return !s.Flaky && !s.Unresponsive })
	if pv := b.Visit(context.Background(), site.Host); !pv.OK {
		t.Fatalf("visit without a flight recorder failed: %s", pv.Err)
	}
	if iv := b.VisitInteractive(context.Background(), site.Host); !iv.OK {
		t.Fatalf("interactive visit without a flight recorder failed: %s", iv.Err)
	}
	if evs := b.Flight.Events(); len(evs) != 0 {
		t.Errorf("nil recorder holds %d events", len(evs))
	}
}

// TestVisitEmitsFlightEvent pins the wide-event contract: one event per
// page visit, carrying the stage/corpus labels, the aggregated request
// stats and the visit outcome.
func TestVisitEmitsFlightEvent(t *testing.T) {
	f := setup(t)
	fr := obs.NewFlightRecorder(64, 1, nil)
	b := f.flightBrowser(t, fr)
	b.Stage = "crawl/porn-ES"
	b.Corpus = "porn"
	b.Rank = func(host string) int { return 42 }

	site := pick(t, f.eco, func(s *webgen.Site) bool {
		return !s.Flaky && !s.Unresponsive && len(s.Services) >= 2
	})
	pv := b.Visit(context.Background(), site.Host)
	if !pv.OK {
		t.Fatalf("visit failed: %s", pv.Err)
	}

	evs := fr.Events()
	if len(evs) != 1 {
		t.Fatalf("recorder holds %d events after one visit, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Site != site.Host || ev.Stage != "crawl/porn-ES" || ev.Corpus != "porn" || ev.Country != "ES" {
		t.Errorf("event labels = %+v", ev)
	}
	if !ev.OK || ev.Interactive {
		t.Errorf("event outcome = ok:%v interactive:%v, want ok non-interactive", ev.OK, ev.Interactive)
	}
	if ev.Rank != 42 {
		t.Errorf("Rank = %d, want 42 from the rank callback", ev.Rank)
	}
	if ev.Requests == 0 || ev.ThirdParty == 0 || ev.Bytes == 0 {
		t.Errorf("stats empty: requests=%d third_party=%d bytes=%d", ev.Requests, ev.ThirdParty, ev.Bytes)
	}
	if ev.WallMS <= 0 {
		t.Errorf("WallMS = %v, want > 0", ev.WallMS)
	}
	if ev.FailClass != "" {
		t.Errorf("successful visit carries fail class %q", ev.FailClass)
	}
}

// TestVisitFlightFailureKept pins that a failed visit emits an event with
// its failure class — the events sampling must never lose.
func TestVisitFlightFailureKept(t *testing.T) {
	f := setup(t)
	// Sample 1-in-1000 so a kept event can only be the always-kept failure.
	fr := obs.NewFlightRecorder(64, 1000, nil)
	b := f.flightBrowser(t, fr)
	b.Stage = "crawl/porn-ES"

	pv := b.Visit(context.Background(), "no-such-host.invalid")
	if pv.OK {
		t.Fatal("visit to a nonexistent host succeeded")
	}
	var failed *obs.VisitEvent
	for _, ev := range fr.Events() {
		if !ev.OK {
			failed = &ev
			break
		}
	}
	if failed == nil {
		t.Fatal("failed visit produced no flight event despite aggressive sampling")
	}
	if failed.Site != "no-such-host.invalid" || failed.FailClass == "" {
		t.Errorf("failure event = %+v, want site and fail class set", failed)
	}
}

// TestVisitSpanLinksFlightEvent pins the span linkage: with a tracer in
// the context, the flight event carries the ID of the visit's span in
// the tracer ring, joining the two observability streams.
func TestVisitSpanLinksFlightEvent(t *testing.T) {
	f := setup(t)
	fr := obs.NewFlightRecorder(64, 1, nil)
	b := f.flightBrowser(t, fr)

	tr := obs.NewTracer(16)
	ctx := obs.WithTracer(context.Background(), tr)
	site := pick(t, f.eco, func(s *webgen.Site) bool { return !s.Flaky && !s.Unresponsive })
	b.Visit(ctx, site.Host)
	var visitSpan uint64
	for _, sp := range tr.Recent() {
		if sp.Name == "visit" {
			visitSpan = sp.ID
		}
	}
	if visitSpan == 0 {
		t.Fatal("visit under a tracer recorded no visit span")
	}
	evs := fr.Events()
	if len(evs) != 1 || evs[0].SpanID != visitSpan {
		t.Fatalf("flight events = %+v, want one with span %d", evs, visitSpan)
	}

	// Without a tracer the visit still works; the linkage is just absent.
	fr2 := obs.NewFlightRecorder(64, 1, nil)
	f.flightBrowser(t, fr2).Visit(context.Background(), site.Host)
	if evs := fr2.Events(); len(evs) != 1 || evs[0].SpanID != 0 {
		t.Errorf("flight events without a tracer = %+v, want one with span 0", evs)
	}
}

// TestInteractiveVisitEmitsFlightEvent covers the Selenium-analog path.
func TestInteractiveVisitEmitsFlightEvent(t *testing.T) {
	f := setup(t)
	fr := obs.NewFlightRecorder(64, 1, nil)
	b := f.flightBrowser(t, fr)
	b.Stage = "crawl/interactive-ES"

	site := pick(t, f.eco, func(s *webgen.Site) bool { return !s.Flaky && !s.Unresponsive })
	iv := b.VisitInteractive(context.Background(), site.Host)
	if !iv.OK {
		t.Fatalf("interactive visit failed: %s", iv.Err)
	}
	evs := fr.Events()
	if len(evs) != 1 {
		t.Fatalf("recorder holds %d events, want 1", len(evs))
	}
	if !evs[0].Interactive || evs[0].Stage != "crawl/interactive-ES" {
		t.Errorf("event = %+v, want interactive with stage label", evs[0])
	}
}
