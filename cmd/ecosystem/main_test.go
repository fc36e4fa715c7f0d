package main

import (
	"bufio"
	"bytes"
	"crypto/tls"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"pornweb/internal/webgen"
)

// TestServeAnswersCurl runs `ecosystem -serve` and, while it waits,
// fetches a site from the printed addresses the way the printed curl
// example does: by Host header over HTTP and by SNI over HTTPS.
func TestServeAnswersCurl(t *testing.T) {
	eco := webgen.Generate(webgen.Params{Seed: 2019, Scale: 0.004})
	var host string
	for _, s := range eco.PornSites {
		if s.HTTPS && !s.Flaky && !s.Unresponsive && len(s.BlockedIn) == 0 {
			host = s.Host
			break
		}
	}
	if host == "" {
		t.Skip("no responsive HTTPS site at this scale")
	}
	var out bytes.Buffer
	served := false
	wait := func() {
		served = true
		var httpAddr, httpsAddr string
		sc := bufio.NewScanner(strings.NewReader(out.String()))
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "serving:") {
				fmt.Sscanf(sc.Text(), "serving: http=%s https=%s", &httpAddr, &httpsAddr)
			}
		}
		if httpAddr == "" || httpsAddr == "" {
			t.Fatalf("no serving line in output:\n%s", out.String())
		}
		tr := &http.Transport{TLSClientConfig: &tls.Config{ServerName: host, InsecureSkipVerify: true}}
		defer tr.CloseIdleConnections()
		for _, url := range []string{"http://" + httpAddr + "/", "https://" + httpsAddr + "/"} {
			req, _ := http.NewRequest(http.MethodGet, url, nil)
			req.Host = host
			resp, err := (&http.Client{Transport: tr}).Do(req)
			if err != nil {
				t.Errorf("GET %s (Host %s): %v", url, host, err)
				continue
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s (Host %s): status %d", url, host, resp.StatusCode)
			}
			if resp.TLS != nil && resp.TLS.PeerCertificates[0].Subject.CommonName != host {
				t.Errorf("GET %s: cert CN %q, want %q", url, resp.TLS.PeerCertificates[0].Subject.CommonName, host)
			}
		}
	}
	if err := run([]string{"-scale", "0.004", "-seed", "2019", "-serve"}, &out, wait); err != nil {
		t.Fatal(err)
	}
	if !served {
		t.Fatal("-serve returned without serving")
	}
}
