// Package crawler implements the instrumented HTTP layer of the
// OpenWPM-analog browser: a single long-lived session (the paper keeps one
// browser session for the whole crawl so cookie synchronization is
// observable) that records every request and response — URL, status,
// referrer, initiator, redirect target, received cookies and the X.509
// organization of TLS peers — into a thread-safe log the analyses consume.
//
// Top-level page fetches probe HTTPS first and downgrade to plain HTTP when
// the TLS handshake fails, which is how the paper measures HTTPS support
// (Section 5.2). Redirects are followed manually so that every hop of a
// cookie-sync or RTB chain appears in the log as its own record.
package crawler

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/cookiejar"
	"net/url"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"pornweb/internal/obs"
	"pornweb/internal/resilience"
)

// fetchLabels is the profile label for the request/response hot path.
var fetchLabels = pprof.Labels("op", "fetch")

// Initiator describes what caused a request.
type Initiator string

// Initiators.
const (
	InitDocument Initiator = "document" // top-level navigation
	InitScript   Initiator = "script"   // <script src> fetch
	InitImage    Initiator = "img"
	InitIframe   Initiator = "iframe"
	InitCSS      Initiator = "css"
	InitRedirect Initiator = "redirect" // HTTP 3xx hop
	InitJS       Initiator = "js"       // request triggered by script execution
)

// CookieRecord is one received Set-Cookie.
type CookieRecord struct {
	Name    string
	Value   string
	Host    string // host that set it
	Session bool   // no expiry: session cookie
}

// Record is one logged request/response pair.
type Record struct {
	Seq         int
	URL         string
	Host        string
	Scheme      string
	SiteHost    string // the visited site this request belongs to
	Country     string
	Status      int // 0 on transport error
	ContentType string
	Referer     string
	Initiator   Initiator
	ParentURL   string // URL of the document/script/hop that caused this
	RedirectTo  string // Location on 3xx
	SetCookies  []CookieRecord
	CertOrg     string // organization from the TLS peer certificate
	Err         string
	// Bytes is the response-body size read for this request.
	Bytes int `json:",omitempty"`
	// Attempt is the 1-based retry attempt this record belongs to (0 in
	// sessions without a retry policy).
	Attempt int `json:",omitempty"`
}

// Result is the outcome of a (redirect-following) fetch.
type Result struct {
	FinalURL    string
	Status      int
	Body        string
	ContentType string
	Hops        int
	Secure      bool // final hop served over TLS
}

// Config configures a crawl session.
type Config struct {
	// DialContext resolves hostnames (the webserver's resolver).
	DialContext func(ctx context.Context, network, addr string) (net.Conn, error)
	// RootCAs trusts the substrate CA.
	RootCAs *x509.CertPool
	// Country is sent as the vantage header on every request.
	Country string
	// Phase is sent as the crawl-phase header ("sanitize", "crawl",
	// "policy").
	Phase string
	// Timeout bounds one request (the paper used 120s per page; tests use
	// much less).
	Timeout time.Duration
	// MaxRedirects bounds a redirect chain.
	MaxRedirects int
	// UserAgent for requests.
	UserAgent string
	// Metrics, when non-nil, receives per-request telemetry (latency
	// histograms, status-class counters, transport errors and HTTPS
	// downgrades, all labeled by vantage country). Instruments are
	// resolved once at session creation, so the per-request cost is an
	// atomic add — and a nil check when disabled.
	Metrics *obs.Registry
	// Retry configures bounded retries with backoff and the per-host
	// circuit breaker. The zero value keeps the historical single-shot
	// behaviour.
	Retry resilience.Policy
	// PageBudget bounds one full page visit (document plus every retry
	// and subresource), so retries can never blow the page deadline.
	// Defaults to 4×Timeout when Retry is active, otherwise disabled.
	PageBudget time.Duration
	// Flight, when non-nil, is the per-visit flight recorder the browser
	// layer emits wide events into. The session itself only carries it
	// (and aggregates the per-site stats those events need); a nil
	// recorder keeps the whole path allocation-free.
	Flight *obs.FlightRecorder
}

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 15 * time.Second
	}
	if c.MaxRedirects == 0 {
		c.MaxRedirects = 10
	}
	if c.UserAgent == "" {
		c.UserAgent = "Mozilla/5.0 (X11; Linux x86_64; rv:52.0) Gecko/20100101 Firefox/52.0"
	}
	if c.Phase == "" {
		c.Phase = "crawl"
	}
	if c.Country == "" {
		c.Country = "ES"
	}
	if c.PageBudget == 0 && c.Retry.Active() {
		c.PageBudget = 4 * c.Timeout
	}
	return c
}

// Session is one instrumented browser session.
type Session struct {
	cfg    Config
	client *http.Client
	met    sessionMetrics
	res    *resilience.Controller // nil without a retry policy

	mu        sync.Mutex
	log       []Record
	seq       int
	siteFails map[string]map[string]uint64 // site host ("" for none) -> failure class -> count
	siteRecs  map[string][]int             // site host -> indices into log

	jarsMu sync.Mutex
	jars   map[string]*cookiejar.Jar // site host -> that visit's cookie jar
}

// VisitStats aggregates the request log of one visited site into the
// counts a flight-recorder event carries.
type VisitStats struct {
	Requests   int   // records attributed to the site
	ThirdParty int   // records aimed at hosts other than the site itself
	Cookies    int   // Set-Cookie headers received
	Bytes      int64 // response-body volume read
	Attempts   int   // highest retry attempt any request needed
}

// sessionMetrics holds the session's pre-resolved instruments. All fields
// are nil without a registry, making every update a no-op.
type sessionMetrics struct {
	latency     *obs.Histogram
	byClass     [6]*obs.Counter // index statusClassIdx: 1xx..5xx, error
	transport   *obs.Counter
	downgrades  *obs.Counter
	cookies     *obs.Counter
	retries     *obs.Counter
	retryDelay  *obs.Histogram
	breakerFast *obs.Counter
	failures    map[resilience.Class]*obs.Counter
}

// statusClassIdx maps an HTTP status (or 0 for transport error) to the
// byClass index; statusClassName names it.
func statusClassIdx(status int) int {
	if status >= 100 && status < 600 {
		return status/100 - 1
	}
	return 5
}

var statusClassName = [6]string{"1xx", "2xx", "3xx", "4xx", "5xx", "error"}

func newSessionMetrics(reg *obs.Registry, country string) sessionMetrics {
	if reg == nil {
		return sessionMetrics{}
	}
	reg.Describe("crawler_request_seconds", "per-request round-trip latency")
	reg.Describe("crawler_requests_total", "requests by status class and vantage country")
	reg.Describe("crawler_transport_errors_total", "requests that died before an HTTP status")
	reg.Describe("crawler_https_downgrades_total", "page loads that fell back from HTTPS to HTTP")
	reg.Describe("crawler_cookies_set_total", "Set-Cookie headers received")
	reg.Describe("crawler_retries_total", "request attempts beyond the first")
	reg.Describe("crawler_retry_delay_seconds", "backoff slept before a retry")
	reg.Describe("crawler_request_failures_total", "requests that failed terminally, by taxonomy class")
	reg.Describe("crawler_breaker_fastfail_total", "requests rejected without an attempt by an open breaker")
	m := sessionMetrics{
		latency:     reg.Histogram("crawler_request_seconds", obs.LatencyBuckets, "country", country),
		transport:   reg.Counter("crawler_transport_errors_total", "country", country),
		downgrades:  reg.Counter("crawler_https_downgrades_total", "country", country),
		cookies:     reg.Counter("crawler_cookies_set_total", "country", country),
		retries:     reg.Counter("crawler_retries_total", "country", country),
		retryDelay:  reg.Histogram("crawler_retry_delay_seconds", obs.LatencyBuckets, "country", country),
		breakerFast: reg.Counter("crawler_breaker_fastfail_total", "country", country),
		failures:    map[resilience.Class]*obs.Counter{},
	}
	for i, class := range statusClassName {
		m.byClass[i] = reg.Counter("crawler_requests_total", "country", country, "class", class)
	}
	for _, c := range resilience.Classes() {
		m.failures[c] = reg.Counter("crawler_request_failures_total", "country", country, "class", string(c))
	}
	return m
}

// NewSession builds a session. Cookie state is kept per visited site —
// each top-level visit starts from a fresh jar, matching the paper's
// stateless OpenWPM crawls (a new browser profile per visit). A jar
// shared across sites would also make the measured numbers depend on
// scheduling: concurrent visits race on which site's requests already
// carry a tracker's cookie, and the ecosystem answers first contact and
// repeat contact differently.
func NewSession(cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	// Connection pooling is tuned for a crawl that contacts tens of
	// thousands of distinct hostnames behind one server. The transport
	// pools per hostname, so the default small global idle cap (100)
	// would evict-and-close tracker connections that are about to be
	// reused. Unlimited idle connections with a short idle timeout keep
	// hot tracker connections warm (ExoClick is contacted from 43% of
	// sites); with the server's Connection: close for one-shot hosts,
	// these settings fix the handshakes per visit and requests per
	// handshake a run reports. Pooled connections are closed when the
	// stage that opened the session ends and calls Close.
	tr := &http.Transport{
		MaxIdleConns:        0, // unlimited
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     15 * time.Second,
	}
	if cfg.DialContext != nil {
		tr.DialContext = cfg.DialContext
	}
	if cfg.RootCAs != nil {
		tr.TLSClientConfig = &tls.Config{RootCAs: cfg.RootCAs}
	}
	s := &Session{
		cfg:       cfg,
		met:       newSessionMetrics(cfg.Metrics, cfg.Country),
		siteFails: map[string]map[string]uint64{},
		siteRecs:  map[string][]int{},
		jars:      map[string]*cookiejar.Jar{},
		res:       resilience.NewController(cfg.Retry),
	}
	if s.res != nil && cfg.Metrics != nil {
		reg := cfg.Metrics
		reg.Describe("crawler_breaker_transitions_total", "circuit breaker state transitions by target state")
		reg.Describe("crawler_breakers_open", "hosts whose breaker is currently open or half-open")
		trans := map[resilience.State]*obs.Counter{}
		for _, st := range []resilience.State{resilience.Closed, resilience.Open, resilience.HalfOpen} {
			trans[st] = reg.Counter("crawler_breaker_transitions_total", "country", cfg.Country, "state", st.String())
		}
		open := reg.Gauge("crawler_breakers_open", "country", cfg.Country)
		s.res.OnTransition(func(host string, from, to resilience.State) {
			trans[to].Inc()
			switch {
			case from == resilience.Closed && to != resilience.Closed:
				open.Add(1)
			case from != resilience.Closed && to == resilience.Closed:
				open.Add(-1)
			}
		})
	}
	// No Jar on the shared client: doAttempt clones it per request with
	// the visited site's own jar.
	s.client = &http.Client{
		Transport: tr,
		Timeout:   cfg.Timeout,
		// Redirects are followed manually in Fetch so every hop is logged.
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	return s, nil
}

// Close closes the session's pooled keep-alive connections; the request
// log and the other snapshots stay readable. Whoever opens a session
// closes it when its work ends, or the pool holds its connections'
// goroutines and buffers, and their server ends, until process exit.
func (s *Session) Close() { s.client.CloseIdleConnections() }

// Log returns a snapshot of the request log.
func (s *Session) Log() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.log))
	copy(out, s.log)
	return out
}

// CertOrgs returns the observed host -> certificate-organization
// mappings, read off the logged records that carried one.
func (s *Session) CertOrgs() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]string{}
	for _, r := range s.log {
		if r.CertOrg != "" {
			out[r.Host] = r.CertOrg
		}
	}
	return out
}

// JarFor exposes the cookie jar of one visited site (for cookie-census
// analyses), creating it if the site has not been contacted yet.
func (s *Session) JarFor(siteHost string) *cookiejar.Jar { return s.jarFor(siteHost) }

// jarFor returns the per-visit cookie jar for a site, minting a fresh one
// on first contact.
func (s *Session) jarFor(siteHost string) *cookiejar.Jar {
	s.jarsMu.Lock()
	defer s.jarsMu.Unlock()
	j := s.jars[siteHost]
	if j == nil {
		j, _ = cookiejar.New(nil) // never fails with nil options
		s.jars[siteHost] = j
	}
	return j
}

// Metrics exposes the session's registry (nil when uninstrumented) so the
// layers above — the browser page loader — can register their own
// instruments against the same registry.
func (s *Session) Metrics() *obs.Registry { return s.cfg.Metrics }

// Country returns the session's vantage country.
func (s *Session) Country() string { return s.cfg.Country }

// PageBudget returns the per-page deadline budget (0 when disabled).
func (s *Session) PageBudget() time.Duration { return s.cfg.PageBudget }

// Flight returns the session's flight recorder (nil when disabled).
func (s *Session) Flight() *obs.FlightRecorder { return s.cfg.Flight }

// FailureCounts snapshots terminal request failures by taxonomy class,
// summed over every site (and the failures attributed to none).
func (s *Session) FailureCounts() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]uint64{}
	for _, m := range s.siteFails {
		for class, n := range m {
			out[class] += n
		}
	}
	return out
}

// countFailure records one terminal request failure of the given
// class, attributed to the visited site (so a resumed run can
// reconstruct per-visit failure totals from the durable store).
func (s *Session) countFailure(class resilience.Class, siteHost string) {
	if class == "" {
		return
	}
	s.met.failures[class].Inc()
	s.mu.Lock()
	m := s.siteFails[siteHost]
	if m == nil {
		m = map[string]uint64{}
		s.siteFails[siteHost] = m
	}
	m[string(class)]++
	s.mu.Unlock()
}

// SiteFailureCounts snapshots the terminal failures attributed to one
// visited site, by taxonomy class (nil when the site saw none).
func (s *Session) SiteFailureCounts(site string) map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	src := s.siteFails[site]
	if len(src) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

// SiteRecords returns the request records attributed to one visited
// site, in log order. Concurrent visits interleave in the session log;
// this is the per-visit view the durable store persists.
func (s *Session) SiteRecords(site string) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.siteRecs[site]
	out := make([]Record, len(idx))
	for i, j := range idx {
		out[i] = s.log[j]
	}
	return out
}

func (s *Session) record(r Record) {
	if r.Status == 0 {
		s.met.transport.Inc()
		s.met.byClass[5].Inc()
	} else {
		s.met.byClass[statusClassIdx(r.Status)].Inc()
	}
	s.met.cookies.Add(uint64(len(r.SetCookies)))
	s.mu.Lock()
	s.seq++
	r.Seq = s.seq
	s.log = append(s.log, r)
	if r.SiteHost != "" {
		s.siteRecs[r.SiteHost] = append(s.siteRecs[r.SiteHost], len(s.log)-1)
	}
	s.mu.Unlock()
}

// VisitStats aggregates the logged request records of one visited site.
func (s *Session) VisitStats(site string) VisitStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st VisitStats
	for _, i := range s.siteRecs[site] {
		r := &s.log[i]
		st.Requests++
		if r.Host != "" && r.Host != r.SiteHost {
			st.ThirdParty++
		}
		st.Cookies += len(r.SetCookies)
		st.Bytes += int64(r.Bytes)
		st.Attempts = max(st.Attempts, r.Attempt)
	}
	return st
}

// Fetch retrieves rawURL, following redirects and logging every hop.
// siteHost attributes the request to the visited site; initiator and
// parentURL describe provenance. Revisiting an absolute URL inside one
// chain fails fast with an error wrapping resilience.ErrRedirectLoop —
// a looping tracker otherwise burns the whole hop budget (and, with
// retries enabled, the page deadline) before failing.
func (s *Session) Fetch(ctx context.Context, rawURL, siteHost string, initiator Initiator, parentURL string) (*Result, error) {
	cur := rawURL
	ref := parentURL
	init := initiator
	seen := map[string]bool{}
	for hop := 0; hop <= s.cfg.MaxRedirects; hop++ {
		if seen[cur] {
			s.countFailure(resilience.ClassRedirectLoop, siteHost)
			return nil, fmt.Errorf("crawler: %w: revisited %s", resilience.ErrRedirectLoop, cur)
		}
		seen[cur] = true
		rec, att, err := s.fetchHop(ctx, cur, siteHost, init, ref)
		if err != nil {
			s.record(rec)
			return nil, err
		}
		if att.redirectTo == "" {
			s.record(rec)
			if cls := resilience.ClassifyStatus(rec.Status); cls != "" {
				s.countFailure(cls, siteHost)
			}
			return &Result{
				FinalURL:    cur,
				Status:      rec.Status,
				Body:        string(att.body),
				ContentType: rec.ContentType,
				Hops:        hop,
				Secure:      rec.Scheme == "https",
			}, nil
		}
		s.record(rec)
		next, err := url.Parse(att.redirectTo)
		if err != nil {
			s.countFailure(resilience.Classify(err), siteHost)
			return nil, fmt.Errorf("crawler: bad redirect %q: %w", att.redirectTo, err)
		}
		base, _ := url.Parse(cur)
		cur = base.ResolveReference(next).String()
		ref = rec.URL
		init = InitRedirect
	}
	s.countFailure(resilience.ClassRedirectLoop, siteHost)
	return nil, fmt.Errorf("crawler: too many redirects from %s: %w", rawURL, resilience.ErrRedirectLoop)
}

// attempt is the payload of one successful (or 5xx) request attempt.
type attempt struct {
	body       []byte
	redirectTo string
	retryAfter time.Duration // parsed Retry-After hint, if any
}

// fetchHop fetches one hop of a redirect chain, applying the session's
// retry policy and circuit breaker. On success (including a served
// redirect) the returned Record is NOT yet logged — the caller records
// it; intermediate failed attempts are logged here as they happen. When
// every retry of a retryable status (e.g. 503) is exhausted, the last
// response is returned with a nil error so the page layer sees the
// status. When the breaker opens mid-sequence on this host's own
// failures, the concrete cause is returned, not ErrBreakerOpen — only a
// first-attempt rejection (the host was already condemned by earlier
// pages) surfaces as breaker-open.
func (s *Session) fetchHop(ctx context.Context, rawURL, siteHost string, init Initiator, ref string) (Record, *attempt, error) {
	pol := s.res.Policy()
	host := ""
	if u, perr := url.Parse(rawURL); perr == nil {
		host = strings.ToLower(u.Hostname())
	}
	if err := s.res.Allow(host); err != nil {
		s.met.breakerFast.Inc()
		s.countFailure(resilience.ClassBreakerOpen, siteHost)
		return Record{URL: rawURL, Host: host, SiteHost: siteHost, Country: s.cfg.Country,
			Initiator: init, ParentURL: ref, Referer: ref, Err: err.Error(), Attempt: 1}, nil, err
	}
	for try := 1; ; try++ {
		var rec Record
		var att *attempt
		var err error
		// op=fetch layers onto the ambient stage/vantage labels so profiles
		// separate network-side CPU (TLS, header parsing, body reads) from
		// the browser's tokenize/jsvm work inside the same stage.
		pprof.Do(ctx, fetchLabels, func(lctx context.Context) {
			rec, att, err = s.doAttempt(lctx, rawURL, siteHost, init, ref)
		})
		if s.res != nil {
			rec.Attempt = try
		}
		ok := err == nil && rec.Status < 500
		s.res.Report(host, ok)
		if err == nil && !resilience.RetryableStatus(rec.Status) {
			if cls := resilience.ClassifyStatus(rec.Status); cls != "" {
				s.countFailure(cls, siteHost)
			}
			return rec, att, nil
		}
		// This attempt failed (transport error or retryable status).
		retryable := err == nil || resilience.Retryable(err)
		if !retryable || try >= pol.MaxAttempts || ctx.Err() != nil {
			return s.finishHop(rec, att, err)
		}
		var ra time.Duration
		if att != nil {
			ra = att.retryAfter
		}
		delay := s.res.Delay(try, ra)
		if dl, has := ctx.Deadline(); has && time.Until(dl) <= delay {
			// Not enough budget left to sleep and try again.
			return s.finishHop(rec, att, err)
		}
		if s.res.Allow(host) != nil {
			// The breaker opened on this host's own failures: stop
			// retrying and surface the concrete cause.
			return s.finishHop(rec, att, err)
		}
		s.record(rec)
		s.met.retries.Inc()
		s.met.retryDelay.Observe(delay.Seconds())
		if !resilience.Sleep(ctx, delay) {
			cerr := ctx.Err()
			s.countFailure(resilience.Classify(cerr), siteHost)
			return Record{URL: rawURL, Host: host, SiteHost: siteHost, Country: s.cfg.Country,
				Initiator: init, ParentURL: ref, Referer: ref, Err: cerr.Error(), Attempt: try}, nil, cerr
		}
	}
}

// finishHop counts and returns a terminal attempt outcome.
func (s *Session) finishHop(rec Record, att *attempt, err error) (Record, *attempt, error) {
	if err != nil {
		s.countFailure(resilience.Classify(err), rec.SiteHost)
		return rec, nil, err
	}
	// Retries exhausted on a retryable status: hand the last response
	// back so the page layer records the status it saw.
	if cls := resilience.ClassifyStatus(rec.Status); cls != "" {
		s.countFailure(cls, rec.SiteHost)
	}
	return rec, att, nil
}

// doAttempt performs a single request without following redirects and
// reads its body, so a truncated or reset stream fails the attempt
// (and can be retried) instead of silently yielding a partial page.
func (s *Session) doAttempt(ctx context.Context, rawURL, siteHost string, initiator Initiator, referer string) (Record, *attempt, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return Record{URL: rawURL, SiteHost: siteHost, Err: err.Error()}, nil, err
	}
	rec := Record{
		URL:       rawURL,
		Host:      strings.ToLower(u.Hostname()),
		Scheme:    u.Scheme,
		SiteHost:  siteHost,
		Country:   s.cfg.Country,
		Initiator: initiator,
		ParentURL: referer,
		Referer:   referer,
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		rec.Err = err.Error()
		return rec, nil, err
	}
	req.Header.Set("User-Agent", s.cfg.UserAgent)
	req.Header.Set("X-Vantage-Country", s.cfg.Country)
	req.Header.Set("X-Crawl-Phase", s.cfg.Phase)
	if referer != "" {
		req.Header.Set("Referer", referer)
	}
	start := time.Now()
	// Shallow-copy the client so this request uses the visited site's own
	// cookie jar while sharing the pooled transport.
	client := *s.client
	client.Jar = s.jarFor(siteHost)
	//studylint:ignore rawhttp doAttempt is the single sanctioned transport call: it only ever runs under visit()'s resilience retry/breaker/budget loop, so this Do IS the routed path
	resp, err := client.Do(req)
	s.met.latency.Observe(time.Since(start).Seconds())
	if err != nil {
		rec.Err = err.Error()
		return rec, nil, err
	}
	if resp.Header.Get("X-Refused") == "1" {
		resp.Body.Close()
		rec.Err = "connection refused"
		err := fmt.Errorf("crawler: %s refused", rec.Host)
		return rec, nil, err
	}
	rec.Status = resp.StatusCode
	rec.ContentType = resp.Header.Get("Content-Type")
	if resp.StatusCode >= 300 && resp.StatusCode < 400 {
		rec.RedirectTo = resp.Header.Get("Location")
	}
	for _, c := range resp.Cookies() {
		rec.SetCookies = append(rec.SetCookies, CookieRecord{
			Name:    c.Name,
			Value:   c.Value,
			Host:    rec.Host,
			Session: c.MaxAge == 0 && c.Expires.IsZero(),
		})
	}
	if resp.TLS != nil && len(resp.TLS.PeerCertificates) > 0 {
		cert := resp.TLS.PeerCertificates[0]
		if len(cert.Subject.Organization) > 0 {
			rec.CertOrg = cert.Subject.Organization[0]
		}
	}
	att := &attempt{redirectTo: rec.RedirectTo}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, aerr := strconv.Atoi(ra); aerr == nil && secs >= 0 {
			att.retryAfter = time.Duration(secs) * time.Second
		} else if t, perr := http.ParseTime(ra); perr == nil {
			att.retryAfter = time.Until(t)
		}
	}
	if att.redirectTo != "" {
		// Best-effort drain so the pooled connection is reusable; a read
		// error here only costs connection reuse, never the redirect hop.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		return rec, att, nil
	}
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	resp.Body.Close()
	if rerr != nil {
		if strings.Contains(rerr.Error(), "unexpected EOF") {
			rerr = fmt.Errorf("%s: %w", rec.Host, resilience.ErrTruncated)
		}
		rec.Err = rerr.Error()
		return rec, nil, rerr
	}
	att.body = body
	rec.Bytes = len(body)
	return rec, att, nil
}

// FetchPage retrieves a site's landing page (or an arbitrary path on it),
// probing HTTPS first and downgrading to HTTP on handshake failure, as the
// paper's crawler does. It returns the result and whether the site
// ultimately supported HTTPS.
//
// A canceled or expired context says nothing about the site's HTTPS
// support, so no plain-HTTP probe is made (and no downgrade counted)
// when the HTTPS failure was caller-induced.
func (s *Session) FetchPage(ctx context.Context, host, path string) (*Result, bool, error) {
	if path == "" {
		path = "/"
	}
	res, err := s.Fetch(ctx, "https://"+host+path, host, InitDocument, "")
	if err == nil {
		return res, true, nil
	}
	// Only the caller's context matters here: a per-request Client.Timeout
	// also unwraps to DeadlineExceeded but says nothing about the caller.
	if ctx.Err() != nil {
		return nil, false, fmt.Errorf("crawler: %s unreachable: %w", host, err)
	}
	res, err2 := s.Fetch(ctx, "http://"+host+path, host, InitDocument, "")
	if err2 == nil {
		s.met.downgrades.Inc()
		return res, false, nil
	}
	// Wrap the more informative of the two causes: a breaker rejection
	// says less than the failure that opened the breaker.
	cause, other := err2, fmt.Sprintf("https: %v", err)
	if errors.Is(err2, resilience.ErrBreakerOpen) && !errors.Is(err, resilience.ErrBreakerOpen) {
		cause, other = err, fmt.Sprintf("http: %v", err2)
	}
	return nil, false, fmt.Errorf("crawler: %s unreachable (%s): %w", host, other, cause)
}
