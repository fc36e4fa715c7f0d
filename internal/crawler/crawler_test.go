package crawler

import (
	"context"
	"strings"
	"testing"
	"time"

	"pornweb/internal/webgen"
	"pornweb/internal/webserver"
)

func testSession(t *testing.T, country, phase string) (*Session, *webgen.Ecosystem) {
	t.Helper()
	eco := webgen.Generate(webgen.Params{Seed: 7, Scale: 0.02})
	srv, err := webserver.Start(eco)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	sess, err := NewSession(Config{
		DialContext: srv.DialContext,
		RootCAs:     srv.CertPool(),
		Country:     country,
		Phase:       phase,
		Timeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	return sess, eco
}

func alive(eco *webgen.Ecosystem) *webgen.Site {
	for _, s := range eco.PornSites {
		if !s.Flaky && !s.Unresponsive && len(s.Services) > 2 && s.FirstPartyCookies > 0 {
			return s
		}
	}
	return nil
}

func TestFetchPageDowngrade(t *testing.T) {
	sess, eco := testSession(t, "ES", "crawl")
	var plain *webgen.Site
	for _, s := range eco.PornSites {
		if !s.HTTPS && !s.Flaky && !s.Unresponsive {
			plain = s
			break
		}
	}
	if plain == nil {
		t.Skip("no plain-HTTP site")
	}
	res, https, err := sess.FetchPage(context.Background(), plain.Host, "/")
	if err != nil {
		t.Fatal(err)
	}
	if https {
		t.Error("HTTP-only site reported as HTTPS")
	}
	if res.Status != 200 || !res.Secure == false {
		t.Errorf("result = %+v", res)
	}
}

func TestFetchPageHTTPS(t *testing.T) {
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
	res, https, err := sess.FetchPage(context.Background(), secure.Host, "/")
	if err != nil {
		t.Fatal(err)
	}
	if !https || !res.Secure {
		t.Error("HTTPS site not fetched over TLS")
	}
}

func TestLogRecordsRequests(t *testing.T) {
	sess, eco := testSession(t, "ES", "crawl")
	site := alive(eco)
	if site == nil {
		t.Fatal("no alive site")
	}
	_, _, err := sess.FetchPage(context.Background(), site.Host, "/")
	if err != nil {
		t.Fatal(err)
	}
	log := sess.Log()
	if len(log) == 0 {
		t.Fatal("empty log")
	}
	last := log[len(log)-1]
	if last.Host != site.Host || last.SiteHost != site.Host {
		t.Errorf("record = %+v", last)
	}
	if last.Initiator != InitDocument {
		t.Errorf("initiator = %q", last.Initiator)
	}
	if len(last.SetCookies) == 0 {
		t.Error("landing page should set cookies")
	}
	// Records have monotonically increasing sequence numbers.
	for i := 1; i < len(log); i++ {
		if log[i].Seq <= log[i-1].Seq {
			t.Fatal("sequence numbers not increasing")
		}
	}
}

func TestRedirectChainLogged(t *testing.T) {
	sess, _ := testSession(t, "ES", "crawl")
	// exosrv.com pixels 302 into a sync chain for a hash-selected slice of
	// site contexts; a site-less pixel always syncs.
	res, err := sess.Fetch(context.Background(), "http://exosrv.com/px.gif", "a.com", InitImage, "http://a.com/")
	if err != nil {
		t.Fatal(err)
	}
	if res.Hops == 0 {
		t.Fatal("expected at least one redirect hop")
	}
	log := sess.Log()
	var redirects, syncs int
	for _, r := range log {
		if r.RedirectTo != "" {
			redirects++
		}
		if strings.Contains(r.URL, "/sync?") {
			syncs++
			if r.Initiator != InitRedirect {
				t.Errorf("sync hop initiator = %q, want redirect", r.Initiator)
			}
			if r.Referer == "" {
				t.Error("sync hop should carry the referring hop URL")
			}
		}
	}
	if redirects == 0 || syncs == 0 {
		t.Errorf("redirects=%d syncs=%d", redirects, syncs)
	}
}

func TestCookiePersistenceAcrossFetches(t *testing.T) {
	sess, _ := testSession(t, "ES", "crawl")
	ctx := context.Background()
	if _, err := sess.Fetch(ctx, "http://google-analytics.com/px.gif?site=a.com", "a.com", InitImage, ""); err != nil {
		t.Fatal(err)
	}
	first := sess.Log()
	var uid string
	for _, r := range first {
		for _, c := range r.SetCookies {
			if strings.HasPrefix(c.Name, "uid_") {
				uid = c.Value
			}
		}
	}
	if uid == "" {
		t.Fatal("GA set no uid cookie")
	}
	// Second fetch: the jar sends the cookie back; the tracker refreshes
	// it with the SAME value (stable identifier), proving jar persistence.
	if _, err := sess.Fetch(ctx, "http://google-analytics.com/px.gif?site=b.com", "b.com", InitImage, ""); err != nil {
		t.Fatal(err)
	}
	log := sess.Log()
	for _, r := range log[len(first):] {
		for _, c := range r.SetCookies {
			if strings.HasPrefix(c.Name, "uid_") && c.Value != uid {
				t.Errorf("uid changed across visits: %q -> %q (jar not persisting)", uid, c.Value)
			}
		}
	}
}

func TestCertOrgCaptured(t *testing.T) {
	sess, _ := testSession(t, "ES", "crawl")
	_, err := sess.Fetch(context.Background(), "https://exosrv.com/px.gif?site=a.com&nosync=1", "a.com", InitImage, "")
	if err != nil {
		t.Fatal(err)
	}
	log := sess.Log()
	if len(log) == 0 || log[0].Host != "exosrv.com" || log[0].CertOrg != "ExoClick S.L." {
		t.Errorf("log = %+v, want exosrv.com with cert org ExoClick S.L.", log)
	}
}

func TestUnreachableHostError(t *testing.T) {
	sess, _ := testSession(t, "ES", "crawl")
	_, _, err := sess.FetchPage(context.Background(), "definitely-not-a-host.example", "/")
	if err == nil {
		t.Fatal("expected error for unknown host")
	}
	log := sess.Log()
	if len(log) == 0 || log[len(log)-1].Err == "" {
		t.Error("failed request must be logged with an error")
	}
}

func TestPhaseHeaderPropagated(t *testing.T) {
	eco := webgen.Generate(webgen.Params{Seed: 7, Scale: 0.02})
	srv, err := webserver.Start(eco)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	var flaky *webgen.Site
	for _, s := range eco.PornSites {
		if s.Flaky && !s.Unresponsive {
			flaky = s
			break
		}
	}
	if flaky == nil {
		t.Skip("no flaky site")
	}
	mk := func(phase string) *Session {
		s, err := NewSession(Config{DialContext: srv.DialContext, RootCAs: srv.CertPool(), Phase: phase, Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	if _, _, err := mk("sanitize").FetchPage(context.Background(), flaky.Host, "/"); err != nil {
		t.Errorf("flaky site should answer sanitize phase: %v", err)
	}
	if _, _, err := mk("crawl").FetchPage(context.Background(), flaky.Host, "/"); err == nil {
		t.Error("flaky site should refuse crawl phase")
	}
}

func TestCountryPropagated(t *testing.T) {
	eco := webgen.Generate(webgen.Params{Seed: 7, Scale: 0.02})
	srv, err := webserver.Start(eco)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	var svcRU *webgen.Service
	for _, svc := range eco.Services {
		if svc.CountryOnly == "RU" {
			svcRU = svc
			break
		}
	}
	if svcRU == nil {
		t.Skip("no RU-only service")
	}
	mk := func(country string) *Session {
		s, err := NewSession(Config{DialContext: srv.DialContext, RootCAs: srv.CertPool(), Country: country, Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	if _, err := mk("RU").Fetch(context.Background(), "http://"+svcRU.Host+"/px.gif?nosync=1", "x.com", InitImage, ""); err != nil {
		t.Errorf("RU-only service should answer from RU: %v", err)
	}
	if _, err := mk("US").Fetch(context.Background(), "http://"+svcRU.Host+"/px.gif?nosync=1", "x.com", InitImage, ""); err == nil {
		t.Error("RU-only service should refuse US")
	}
}
