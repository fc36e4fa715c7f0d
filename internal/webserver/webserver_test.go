package webserver

import (
	"context"
	"crypto/tls"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"pornweb/internal/webgen"
)

func startTest(t *testing.T) (*Server, *webgen.Ecosystem) {
	t.Helper()
	eco := webgen.Generate(webgen.Params{Seed: 7, Scale: 0.02})
	srv, err := Start(eco)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, eco
}

func client(srv *Server) *http.Client {
	tr := &http.Transport{
		DialContext:     srv.DialContext,
		TLSClientConfig: &tls.Config{RootCAs: srv.CertPool()},
	}
	return &http.Client{Transport: tr}
}

func pickSite(t *testing.T, eco *webgen.Ecosystem, pred func(*webgen.Site) bool) *webgen.Site {
	t.Helper()
	for _, s := range eco.PornSites {
		if pred(s) {
			return s
		}
	}
	t.Skip("no site matching predicate at this scale")
	return nil
}

func TestHTTPLanding(t *testing.T) {
	srv, eco := startTest(t)
	site := pickSite(t, eco, func(s *webgen.Site) bool { return !s.Flaky && !s.Unresponsive })
	c := client(srv)
	resp, err := c.Get("http://" + site.Host + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "<html") {
		t.Error("body not HTML")
	}
}

func TestHTTPSWithCertOrg(t *testing.T) {
	srv, eco := startTest(t)
	site := pickSite(t, eco, func(s *webgen.Site) bool {
		return s.HTTPS && !s.Flaky && !s.Unresponsive && s.Owner != nil && s.Owner.CertOrg != ""
	})
	c := client(srv)
	resp, err := c.Get("https://" + site.Host + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	cert := resp.TLS.PeerCertificates[0]
	if len(cert.Subject.Organization) == 0 || cert.Subject.Organization[0] != site.Owner.CertOrg {
		t.Errorf("cert org = %v, want %q", cert.Subject.Organization, site.Owner.CertOrg)
	}
	if cert.Subject.CommonName != site.Host {
		t.Errorf("cert CN = %q", cert.Subject.CommonName)
	}
}

func TestHTTPSRefusedForPlainHosts(t *testing.T) {
	srv, eco := startTest(t)
	site := pickSite(t, eco, func(s *webgen.Site) bool { return !s.HTTPS && !s.Flaky && !s.Unresponsive })
	c := client(srv)
	_, err := c.Get("https://" + site.Host + "/")
	if err == nil {
		t.Fatal("TLS handshake should fail for HTTP-only host")
	}
}

func TestSetCookieRoundTrip(t *testing.T) {
	srv, eco := startTest(t)
	site := pickSite(t, eco, func(s *webgen.Site) bool {
		return !s.Flaky && !s.Unresponsive && s.FirstPartyCookies > 0
	})
	c := client(srv)
	resp, err := c.Get("http://" + site.Host + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(resp.Cookies()) == 0 {
		t.Error("no Set-Cookie headers on landing page")
	}
	persistent := false
	for _, ck := range resp.Cookies() {
		if ck.MaxAge > 0 {
			persistent = true
		}
	}
	if !persistent {
		t.Error("expected at least one persistent cookie")
	}
}

func TestRefusedHostDropsConnection(t *testing.T) {
	srv, eco := startTest(t)
	var dead *webgen.Site
	for _, s := range eco.FalseCandidates {
		if s.Unresponsive {
			dead = s
			break
		}
	}
	if dead == nil {
		t.Skip("no dead host")
	}
	c := client(srv)
	resp, err := c.Get("http://" + dead.Host + "/")
	if err == nil {
		// Fallback path: sentinel header.
		defer resp.Body.Close()
		if resp.Header.Get("X-Refused") != "1" {
			t.Errorf("dead host served status %d without refusal sentinel", resp.StatusCode)
		}
	}
}

func TestVantageHeaderChangesBehaviour(t *testing.T) {
	srv, eco := startTest(t)
	var blocked *webgen.Site
	for _, s := range eco.PornSites {
		if s.BlockedIn["RU"] && !s.Flaky && !s.Unresponsive {
			blocked = s
			break
		}
	}
	if blocked == nil {
		t.Skip("no RU-blocked site at this scale")
	}
	c := client(srv)
	req, _ := http.NewRequest("GET", "http://"+blocked.Host+"/", nil)
	req.Header.Set(HeaderCountry, "RU")
	resp, err := c.Do(req)
	if err == nil {
		defer resp.Body.Close()
		if resp.Header.Get("X-Refused") != "1" {
			t.Errorf("RU-blocked site answered from RU with %d", resp.StatusCode)
		}
	}
	req2, _ := http.NewRequest("GET", "http://"+blocked.Host+"/", nil)
	req2.Header.Set(HeaderCountry, "ES")
	resp2, err := c.Do(req2)
	if err != nil {
		t.Fatalf("site should answer from ES: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Errorf("ES status = %d", resp2.StatusCode)
	}
}

func TestPhaseHeader(t *testing.T) {
	srv, eco := startTest(t)
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
	c := client(srv)
	req, _ := http.NewRequest("GET", "http://"+flaky.Host+"/", nil)
	req.Header.Set(HeaderPhase, "sanitize")
	resp, err := c.Do(req)
	if err != nil {
		t.Fatalf("flaky site must answer during sanitize: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("sanitize status = %d", resp.StatusCode)
	}
}

func TestSyncRedirectOverHTTP(t *testing.T) {
	srv, _ := startTest(t)
	c := client(srv)
	c.CheckRedirect = func(req *http.Request, via []*http.Request) error {
		return http.ErrUseLastResponse // do not follow; inspect the 302
	}
	resp, err := c.Get("http://exosrv.com/px.gif")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 302 {
		t.Fatalf("pixel status = %d, want 302", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if !strings.Contains(loc, "/sync?") || !strings.Contains(loc, "puid=") {
		t.Errorf("Location = %q", loc)
	}
}

func TestServiceScriptServed(t *testing.T) {
	srv, _ := startTest(t)
	c := client(srv)
	resp, err := c.Get("http://google-analytics.com/js/tag0.js?site=x.com")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "navigator.userAgent") {
		t.Errorf("analytics script unexpected: %s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "javascript") {
		t.Errorf("content type = %q", ct)
	}
}

func TestWildcardSubdomainCert(t *testing.T) {
	srv, eco := startTest(t)
	site := pickSite(t, eco, func(s *webgen.Site) bool {
		if !s.HTTPS || s.Flaky || s.Unresponsive {
			return false
		}
		for _, fp := range s.ExtraFirstParty {
			if strings.HasSuffix(fp, "."+s.Host) {
				return true
			}
		}
		return false
	})
	var sub string
	for _, fp := range site.ExtraFirstParty {
		if strings.HasSuffix(fp, "."+site.Host) {
			sub = fp
		}
	}
	c := client(srv)
	resp, err := c.Get("https://" + sub + "/assets/site.css")
	if err != nil {
		t.Fatalf("subdomain TLS fetch failed: %v", err)
	}
	resp.Body.Close()
}

// TestCloseIgnoresUnusedTLSConn holds a connection that completed its
// TLS handshake but never sent a request. net/http counts such a
// connection as active, so a graceful shutdown would wait for it; Close
// must not.
func TestCloseIgnoresUnusedTLSConn(t *testing.T) {
	srv, eco := startTest(t)
	site := pickSite(t, eco, func(s *webgen.Site) bool { return s.HTTPS && !s.Flaky && !s.Unresponsive })
	raw, err := srv.DialContext(context.Background(), "tcp", site.Host+":443")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := tls.Client(raw, &tls.Config{ServerName: site.Host, RootCAs: srv.CertPool()})
	if err := conn.Handshake(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	srv.Close()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("Close took %v with an unused TLS connection open, want under 100ms", took)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("connection still readable after Close")
	}
}

// TestListenTCP fetches over the real loopback sockets the way curl does
// against `ecosystem -serve`: the vhost comes from the Host header over
// plain HTTP and from SNI over TLS.
func TestListenTCP(t *testing.T) {
	srv, eco := startTest(t)
	site := pickSite(t, eco, func(s *webgen.Site) bool { return s.HTTPS && !s.Flaky && !s.Unresponsive })
	httpAddr, httpsAddr, err := srv.ListenTCP()
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{TLSClientConfig: &tls.Config{ServerName: site.Host, RootCAs: srv.CertPool()}}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr}
	for _, url := range []string{"http://" + httpAddr + "/", "https://" + httpsAddr + "/"} {
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		req.Host = site.Host
		resp, err := c.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), "<html") {
			t.Errorf("GET %s: status %d, body %.40q", url, resp.StatusCode, body)
		}
		if resp.TLS != nil && resp.TLS.PeerCertificates[0].Subject.CommonName != site.Host {
			t.Errorf("GET %s: cert CN = %q, want %q", url, resp.TLS.PeerCertificates[0].Subject.CommonName, site.Host)
		}
	}
	srv.Close()
	if conn, err := net.DialTimeout("tcp", httpAddr, time.Second); err == nil {
		conn.Close()
		t.Error("TCP listener still accepting after Close")
	}
}
