package core

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"pornweb/internal/webgen"
)

// scrape fetches a path from the shared study's admin listener.
func scrape(t *testing.T, st *Study, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + st.AdminAddr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsEndpoint asserts that after a full Run the admin listener
// serves the cross-cutting telemetry the instrumentation promises:
// per-stage duration histograms, per-country crawl counters, webserver
// vhost and TLS counters, blocklist match counts, browser page-load
// distributions and the third-party cache-hit counter.
func TestMetricsEndpoint(t *testing.T) {
	st, _ := run(t)
	if st.AdminAddr() == "" {
		t.Fatal("MetricsAddr was set; admin listener must be up")
	}
	status, body := scrape(t, st, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	for _, want := range []string{
		// pipeline stages
		`study_stage_seconds_bucket{stage="crawl/porn-ES",le="+Inf"}`,
		`study_stage_seconds_count{stage="analysis/cookies"} 1`,
		`study_stage_seconds_count{stage="analysis/geo"} 1`,
		// per-country crawler counters and latency
		`crawler_requests_total{class="2xx",country="ES"}`,
		`crawler_requests_total{class="2xx",country="US"}`,
		`crawler_request_seconds_count{country="ES"}`,
		`crawler_https_downgrades_total{country="ES"}`,
		// browser page loads
		`browser_page_loads_total{country="ES",result="ok"}`,
		`browser_subresources_total{country="ES",kind="script"}`,
		// webserver vhosts and TLS
		`webserver_requests_total{kind="site"}`,
		`webserver_requests_total{kind="service"}`,
		`webserver_vhost_requests_total{host="`,
		`webserver_tls_handshakes_total{result="served"}`,
		`webserver_tls_handshakes_total{result="no_tls"}`,
		`webserver_certs_minted_total`,
		// blocklist and memoization telemetry
		`blocklist_checks_total{list="easylist+easyprivacy"}`,
		`crawl_tp_cache_hits_total{country="ES"}`,
		// logger lines
		`log_lines_total{level="info"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsValues cross-checks exposed counters against the run's own
// ground truth.
func TestMetricsValues(t *testing.T) {
	st, res := run(t)

	// The ES porn+reference crawls alone exceed the corpus size in
	// requests; every one must have been counted somewhere.
	var total uint64
	for _, class := range []string{"1xx", "2xx", "3xx", "4xx", "5xx", "error"} {
		total += st.Metrics.Counter("crawler_requests_total", "country", "ES", "class", class).Value()
	}
	if total < uint64(len(res.Corpus.Porn)) {
		t.Errorf("ES request count %d < porn corpus %d", total, len(res.Corpus.Porn))
	}

	// Run consumes thirdPartyHostsBySite from many analyses; all but the
	// first computation must be cache hits.
	hits := st.Metrics.Counter("crawl_tp_cache_hits_total", "country", "ES").Value()
	if hits < 5 {
		t.Errorf("third-party cache hits = %d, want several (memoization broken?)", hits)
	}

	// Stage histogram must cover every Run stage exactly once.
	for _, stage := range []string{"corpus", "crawl/porn-ES", "crawl/reference-ES",
		"crawl/porn-US", "crawl/interactive-ES", "analysis/third-parties", "analysis/geo"} {
		h := st.Metrics.Histogram("study_stage_seconds", nil, "stage", stage)
		if h.Count() != 1 {
			t.Errorf("stage %s recorded %d times, want 1", stage, h.Count())
		}
	}

	// Every crawl-stage visit emits a flight event through the stage's
	// browser; the ES porn crawl alone visits the whole porn corpus.
	if seen, _, _ := st.Flight.Stats(); seen < uint64(len(res.Corpus.Porn)) {
		t.Errorf("flight recorder saw %d visits < porn corpus %d", seen, len(res.Corpus.Porn))
	}

	// HTTPS-downgrade counter must agree with the planted ground truth:
	// HTTP-only porn sites force the crawler's HTTPS-then-HTTP probing.
	httpOnly := 0
	for _, s := range st.Eco.PornSites {
		if !st.Eco.HTTPSCapable(s.Host) {
			httpOnly++
		}
	}
	if httpOnly > 3 {
		if st.Metrics.Counter("crawler_https_downgrades_total", "country", "ES").Value() == 0 {
			t.Errorf("%d HTTP-only sites planted but no downgrades counted", httpOnly)
		}
	}
}

// TestSpansEndpoint asserts the stage spans are exposed and nested under
// the study/run root.
func TestSpansEndpoint(t *testing.T) {
	st, _ := run(t)
	status, body := scrape(t, st, "/spans")
	if status != http.StatusOK {
		t.Fatalf("/spans status %d", status)
	}
	for _, want := range []string{`"study/run"`, `"stage/crawl/porn-ES"`, `"crawl/ES"`, `"parent_id"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/spans missing %q", want)
		}
	}
	spans := st.Tracer.Recent()
	var rootID uint64
	for _, s := range spans {
		if s.Name == "study/run" {
			rootID = s.ID
		}
	}
	if rootID == 0 {
		t.Fatal("no study/run root span recorded")
	}
	found := false
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "stage/analysis/") && s.ParentID == rootID {
			found = true
			break
		}
	}
	if !found {
		t.Error("no analysis stage span parented to study/run")
	}
}

// TestPprofReachable asserts the profiling endpoints ride along on the
// admin listener.
func TestPprofReachable(t *testing.T) {
	st, _ := run(t)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/profile?seconds=1"} {
		status, _ := scrape(t, st, path)
		if status != http.StatusOK {
			t.Errorf("GET %s: status %d", path, status)
		}
	}
}

// TestNoListenerWithoutAddr asserts an unset MetricsAddr starts nothing.
func TestNoListenerWithoutAddr(t *testing.T) {
	st, err := NewStudy(Config{Params: webgen.Params{Seed: 11, Scale: 0.004}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.AdminAddr() != "" {
		t.Fatalf("admin listener %q started without MetricsAddr", st.AdminAddr())
	}
	if st.Metrics == nil || st.Tracer == nil || st.Log == nil {
		t.Fatal("obs handles must exist even without a listener")
	}
}
