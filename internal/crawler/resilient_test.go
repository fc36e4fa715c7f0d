package crawler

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"pornweb/internal/obs"
	"pornweb/internal/resilience"
	"pornweb/internal/webgen"
	"pornweb/internal/webserver"
)

// faultySession serves a chaos-enabled ecosystem and returns a session
// configured with the given retry policy.
func faultySession(t *testing.T, prof webgen.FaultProfile, pol resilience.Policy, reg *obs.Registry) (*Session, *webgen.Ecosystem) {
	return faultySessionScale(t, 0.02, prof, pol, reg)
}

func faultySessionScale(t *testing.T, scale float64, prof webgen.FaultProfile, pol resilience.Policy, reg *obs.Registry) (*Session, *webgen.Ecosystem) {
	t.Helper()
	eco := webgen.Generate(webgen.Params{Seed: 7, Scale: scale, Faults: prof})
	srv, err := webserver.Start(eco)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	sess, err := NewSession(Config{
		DialContext: srv.DialContext,
		RootCAs:     srv.CertPool(),
		Country:     "ES",
		Phase:       "crawl",
		Timeout:     5 * time.Second,
		Retry:       pol,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	return sess, eco
}

// faultHost finds a healthy site carrying the given fault kind.
func faultHost(t *testing.T, eco *webgen.Ecosystem, kind webgen.FaultKind) string {
	t.Helper()
	for _, s := range eco.PornSites {
		if s.Flaky || s.Unresponsive || len(s.BlockedIn) > 0 {
			continue
		}
		if eco.FaultKindFor(s.Host) == kind {
			return s.Host
		}
	}
	t.Skipf("no site with fault %s at this scale", kind)
	return ""
}

func fastPolicy(attempts int) resilience.Policy {
	return resilience.Policy{
		MaxAttempts: attempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		Seed:        1,
	}
}

func TestRetryRecoversServerErrorBurst(t *testing.T) {
	reg := obs.NewRegistry()
	sess, eco := faultySession(t, webgen.DefaultFaultProfile(), fastPolicy(4), reg)
	host := faultHost(t, eco, webgen.FaultServerError)
	res, https, err := sess.FetchPage(context.Background(), host, "/")
	if err != nil {
		t.Fatalf("retrying fetch failed: %v", err)
	}
	if res.Status != 200 {
		t.Fatalf("status = %d, want 200 after burst", res.Status)
	}
	_ = https
	// Every attempt (including the failed ones) must be in the log with
	// its attempt number.
	var tries []int
	for _, r := range sess.Log() {
		if r.Host == host {
			tries = append(tries, r.Attempt)
		}
	}
	if len(tries) < 2 {
		t.Fatalf("expected the failed attempts in the log, got %v", tries)
	}
	var sb strings.Builder
	reg.WriteExposition(&sb)
	if !strings.Contains(sb.String(), `crawler_retries_total{country="ES"}`) {
		t.Error("retries not visible in exposition")
	}
}

func TestRetryRecoversTruncatedBody(t *testing.T) {
	sess, eco := faultySession(t, webgen.DefaultFaultProfile(), fastPolicy(4), nil)
	host := faultHost(t, eco, webgen.FaultTruncate)
	res, _, err := sess.FetchPage(context.Background(), host, "/")
	if err != nil {
		t.Fatalf("retrying fetch failed: %v", err)
	}
	if res.Status != 200 || res.Body == "" {
		t.Fatalf("result = status %d, %d body bytes", res.Status, len(res.Body))
	}
}

func TestSingleShotLosesWhatRetriesWin(t *testing.T) {
	sess, eco := faultySession(t, webgen.DefaultFaultProfile(), resilience.Policy{}, nil)
	host := faultHost(t, eco, webgen.FaultTruncate)
	_, _, err := sess.FetchPage(context.Background(), host, "/")
	if err == nil {
		t.Fatal("single-shot session should lose a truncating host (burst 2 covers both schemes' probes)")
	}
	if !errors.Is(err, resilience.ErrTruncated) {
		t.Fatalf("error = %v, want wrapped ErrTruncated", err)
	}
	_, counts := sess.TakeVisit(host)
	if counts[string(resilience.ClassTruncated)] == 0 {
		t.Errorf("failure counts = %v, want truncated > 0", counts)
	}
}

func TestRedirectLoopFailsFast(t *testing.T) {
	sess, eco := faultySession(t, webgen.DefaultFaultProfile(), fastPolicy(4), nil)
	host := faultHost(t, eco, webgen.FaultRedirectLoop)
	_, _, err := sess.FetchPage(context.Background(), host, "/")
	if err == nil {
		t.Fatal("redirect-loop host should fail")
	}
	if !errors.Is(err, resilience.ErrRedirectLoop) {
		t.Fatalf("error = %v, want wrapped ErrRedirectLoop", err)
	}
	// Fail-fast: the 2-cycle must be caught well before MaxRedirects
	// (10) hops are burned per scheme.
	var hops int
	for _, r := range sess.Log() {
		if r.Host == host {
			hops++
		}
	}
	if hops > 8 {
		t.Errorf("burned %d hops on a 2-cycle; cycle detection should fail fast", hops)
	}
	if _, fails := sess.TakeVisit(host); fails[string(resilience.ClassRedirectLoop)] == 0 {
		t.Error("redirect-loop failure not counted")
	}
}

func TestNoDowngradeOnCanceledContext(t *testing.T) {
	sess, eco := testSession(t, "ES", "crawl")
	var secure *webgen.Site
	for _, s := range eco.PornSites {
		if s.HTTPS && !s.Flaky && !s.Unresponsive {
			secure = s
			break
		}
	}
	if secure == nil {
		t.Skip("no HTTPS site")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := sess.FetchPage(ctx, secure.Host, "/")
	if err == nil {
		t.Fatal("canceled fetch should fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	// The HTTPS failure was caller-induced: no plain-HTTP probe, no
	// downgrade, and no HTTP record in the log.
	for _, r := range sess.Log() {
		if r.Scheme == "http" {
			t.Fatalf("canceled HTTPS fetch probed plain HTTP: %+v", r)
		}
	}
}

func TestBreakerOpensOnDeadHost(t *testing.T) {
	reg := obs.NewRegistry()
	pol := fastPolicy(2)
	pol.BreakerThreshold = 3
	pol.BreakerCooldown = time.Hour // stays open for the whole test
	sess, eco := faultySessionScale(t, 0.05, webgen.FaultProfile{}, pol, reg)
	var dead *webgen.Site
	for _, s := range eco.FalseCandidates {
		if s.Unresponsive {
			dead = s
			break
		}
	}
	if dead == nil {
		t.Skip("no unresponsive site at this scale")
	}
	ctx := context.Background()
	// Each FetchPage makes up to 2 attempts per scheme; two pages are
	// enough to cross the threshold of 3 consecutive failures.
	for i := 0; i < 3; i++ {
		if _, _, err := sess.FetchPage(ctx, dead.Host, "/"); err == nil {
			t.Fatal("dead host fetch succeeded")
		}
	}
	if st := sess.res.StateOf(dead.Host); st != resilience.Open {
		t.Fatalf("breaker state = %v, want open", st)
	}
	// The next fetch is rejected without touching the wire.
	before := len(sess.Log())
	_, _, err := sess.FetchPage(ctx, dead.Host, "/")
	if err == nil || !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("error = %v, want wrapped ErrBreakerOpen", err)
	}
	after := sess.Log()[before:]
	for _, r := range after {
		if r.Err == "" || !strings.Contains(r.Err, "circuit breaker open") {
			t.Fatalf("breaker-open fetch still hit the wire: %+v", r)
		}
	}
	if _, fails := sess.TakeVisit(dead.Host); fails[string(resilience.ClassBreakerOpen)] == 0 {
		t.Error("breaker-open failure not counted")
	}
	var sb strings.Builder
	reg.WriteExposition(&sb)
	exp := sb.String()
	if !strings.Contains(exp, `crawler_breaker_transitions_total{country="ES",state="open"}`) {
		t.Error("breaker transition not visible in exposition")
	}
	if !strings.Contains(exp, `crawler_breakers_open{country="ES"} 1`) {
		t.Error("open-breaker gauge not visible in exposition")
	}
}

func TestGeo451ClassifiedNotRefused(t *testing.T) {
	prof := webgen.DefaultFaultProfile()
	prof.Geo451 = true
	sess, eco := faultySessionScale(t, 0.05, prof, fastPolicy(2), nil)
	var blocked *webgen.Site
	var country string
	for _, s := range eco.PornSites {
		if len(s.BlockedIn) > 0 && !s.Unresponsive && !s.Flaky && eco.FaultKindFor(s.Host) == webgen.FaultNone {
			blocked = s
			for c := range s.BlockedIn {
				country = c
			}
			break
		}
	}
	if blocked == nil {
		t.Skip("no geo-blocked site at this scale")
	}
	// Re-dial from the blocked vantage.
	sess2, err := NewSession(Config{
		DialContext: sess.cfg.DialContext,
		RootCAs:     sess.cfg.RootCAs,
		Country:     country,
		Phase:       "crawl",
		Timeout:     5 * time.Second,
		Retry:       fastPolicy(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	res, _, ferr := sess2.FetchPage(context.Background(), blocked.Host, "/")
	if ferr != nil {
		t.Fatalf("451 should be a response, not a transport error: %v", ferr)
	}
	if res.Status != 451 {
		t.Fatalf("status = %d, want 451", res.Status)
	}
	if _, fails := sess2.TakeVisit(blocked.Host); fails[string(resilience.ClassGeoBlocked)] == 0 {
		t.Error("geo-blocked failure not counted")
	}
}
