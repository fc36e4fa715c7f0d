// Package webserver serves the generated ecosystem over real HTTP and
// HTTPS, in memory. One plain and one TLS http.Server host every site and
// service through virtual hosting (Host-header demultiplexing); the TLS
// side issues per-host certificates on demand from an in-memory CA via
// SNI, but only for hosts that support HTTPS — requesting a TLS session
// for an HTTP-only host fails the handshake exactly as a real server
// without a certificate would, which is what drives the crawler's
// HTTPS-then-downgrade probing (Section 5.2 of the paper).
//
// The crawler reaches the server through DialContext, which resolves
// every hostname to the server — the offline stand-in for DNS — and
// returns the client end of an in-memory connection pair. The bytes on
// it are the real TLS records and HTTP/1.1 messages; only the kernel's
// loopback stack is left out, because no analysis reads it. ListenTCP
// additionally serves the same servers on loopback sockets for clients
// outside the process. The vantage country and the crawl phase travel
// in the X-Vantage-Country and X-Crawl-Phase request headers, injected
// by the crawler's transport (the offline stand-in for VPN egress
// geography).
package webserver

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"io"
	"log"
	"math/big"
	"net"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pornweb/internal/obs"
	"pornweb/internal/webgen"
)

// Header names used to carry crawl metadata.
const (
	HeaderCountry = "X-Vantage-Country"
	HeaderPhase   = "X-Crawl-Phase"
)

// serveLabels attributes request-handling CPU to the synthetic web
// server rather than leaving it unlabeled in profiles.
var serveLabels = pprof.Labels("stage", "serve")

// Server hosts an ecosystem.
type Server struct {
	Eco *webgen.Ecosystem

	httpLn   *memListener
	httpsLn  *memListener
	httpSrv  *http.Server
	httpsSrv *http.Server
	tlsConf  *tls.Config
	// ports numbers the client ends of dialed pairs.
	ports atomic.Uint32

	caCert *x509.Certificate
	caKey  *ecdsa.PrivateKey
	caPool *x509.CertPool

	reg *obs.Registry
	log *obs.Logger
	met serverMetrics

	mu sync.Mutex
	// guarded by mu
	certs map[string]*tls.Certificate
	// vhosts holds per-service-host request counters.
	// guarded by mu
	vhosts map[string]*obs.Counter
}

// serverMetrics holds the server's pre-resolved instruments; all no-op
// without a registry.
type serverMetrics struct {
	reqSite     *obs.Counter
	reqService  *obs.Counter
	reqOther    *obs.Counter
	reqSecure   *obs.Counter
	tlsServed   *obs.Counter
	tlsRefused  *obs.Counter
	certsMinted *obs.Counter
	refusals    *obs.Counter
	errLogLines *obs.Counter
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	if reg == nil {
		return serverMetrics{}
	}
	reg.Describe("webserver_requests_total", "requests served, by virtual-host kind")
	reg.Describe("webserver_requests_secure_total", "requests that arrived over TLS")
	reg.Describe("webserver_vhost_requests_total", "requests per third-party service virtual host")
	reg.Describe("webserver_tls_handshakes_total", "SNI certificate requests, by outcome")
	reg.Describe("webserver_certs_minted_total", "leaf certificates minted on demand")
	reg.Describe("webserver_refused_total", "connections dropped to simulate dead or refusing hosts")
	reg.Describe("webserver_error_log_lines_total", "lines net/http wrote to the server error log")
	reg.Describe("webserver_faults_injected_total", "chaos faults injected on the wire, by kind")
	reg.Describe("webserver_vhost_faults_total", "faults injected per third-party service virtual host")
	return serverMetrics{
		reqSite:     reg.Counter("webserver_requests_total", "kind", "site"),
		reqService:  reg.Counter("webserver_requests_total", "kind", "service"),
		reqOther:    reg.Counter("webserver_requests_total", "kind", "other"),
		reqSecure:   reg.Counter("webserver_requests_secure_total"),
		tlsServed:   reg.Counter("webserver_tls_handshakes_total", "result", "served"),
		tlsRefused:  reg.Counter("webserver_tls_handshakes_total", "result", "no_tls"),
		certsMinted: reg.Counter("webserver_certs_minted_total"),
		refusals:    reg.Counter("webserver_refused_total"),
		errLogLines: reg.Counter("webserver_error_log_lines_total"),
	}
}

// Option customizes a Server at Start.
type Option func(*Server)

// WithMetrics registers the server's instruments (request, vhost, TLS and
// cert-minting counters) in reg.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// WithLogger routes server-side errors through l instead of dropping them.
// Expected noise — TLS handshake failures for HTTP-only hosts drive the
// crawler's HTTPS-downgrade probing — is logged at debug level but always
// counted when a registry is attached.
func WithLogger(l *obs.Logger) Option {
	return func(s *Server) { s.log = l }
}

// Start generates the CA and begins serving in memory; it binds no
// socket. Callers must Close the server.
func Start(eco *webgen.Ecosystem, opts ...Option) (*Server, error) {
	s := &Server{
		Eco:    eco,
		certs:  map[string]*tls.Certificate{},
		vhosts: map[string]*obs.Counter{},
	}
	for _, opt := range opts {
		opt(s)
	}
	s.met = newServerMetrics(s.reg)
	if err := s.initCA(); err != nil {
		return nil, fmt.Errorf("webserver: init CA: %w", err)
	}
	s.httpLn = newMemListener(80)
	s.httpsLn = newMemListener(443)
	s.tlsConf = &tls.Config{GetCertificate: s.getCertificate}

	handler := http.HandlerFunc(s.handle)
	// Server-side error lines (mostly TLS handshake failures for HTTP-only
	// hosts, which are expected behaviour, not noise-worthy errors) are
	// counted and forwarded to the obs logger at debug level rather than
	// printed to stderr.
	errLog := log.New(s.log.WithComponent("webserver").StdWriter(obs.LevelDebug, s.met.errLogLines), "", 0)
	s.httpSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second, ErrorLog: errLog}
	s.httpsSrv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second, ErrorLog: errLog}
	go serveLabeled(func() { s.httpSrv.Serve(s.httpLn) })
	go serveLabeled(func() { s.httpsSrv.Serve(tls.NewListener(s.httpsLn, s.tlsConf)) })
	return s, nil
}

// serveLabeled runs an accept loop under the stage=serve profile label;
// every per-connection goroutine net/http spawns from it inherits the
// label set, so the whole server side — TLS handshakes, request parsing,
// handlers, response flushing — profiles under stage=serve, a named row
// in studyprof's table distinct from the crawler-side stages.
func serveLabeled(acceptLoop func()) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), serveLabels))
	acceptLoop()
}

// ListenTCP also serves the ecosystem on two loopback TCP listeners, for
// clients outside the process such as curl or a browser, and returns
// their addresses. The listeners feed the same two http.Servers, so
// Close shuts them with everything else.
func (s *Server) ListenTCP() (httpAddr, httpsAddr string, err error) {
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", fmt.Errorf("webserver: listen http: %w", err)
	}
	httpsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		httpLn.Close()
		return "", "", fmt.Errorf("webserver: listen https: %w", err)
	}
	go serveLabeled(func() { s.httpSrv.Serve(httpLn) })
	go serveLabeled(func() { s.httpsSrv.Serve(tls.NewListener(httpsLn, s.tlsConf)) })
	return httpLn.Addr().String(), httpsLn.Addr().String(), nil
}

// Close stops accepting, makes every later dial fail as refused, and
// closes every open connection at once, without a graceful drain: the
// server's only in-process client is the study's own crawler, which has
// finished when its owner calls Close. Close is idempotent.
func (s *Server) Close() {
	s.httpSrv.Close()
	s.httpsSrv.Close()
	// http.Server.Close closes only the listeners its Serve loops have
	// registered; one whose goroutine has not run yet is closed here.
	s.httpLn.Close()
	s.httpsLn.Close()
}

// CertPool returns a pool trusting the in-memory CA, for crawler TLS
// verification.
func (s *Server) CertPool() *x509.CertPool { return s.caPool }

// DialContext resolves any hostname to the server and returns the client
// end of a new in-memory connection: port 443 reaches the TLS server,
// anything else the plain one. The server sees the client at
// 127.0.0.1, as it would over loopback.
func (s *Server) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	ln := s.httpLn
	if port == "443" {
		ln = s.httpsLn
	}
	// Client ports cycle through Linux's default ephemeral range.
	local := &net.TCPAddr{IP: loopback, Port: 32768 + int(s.ports.Add(1)%28232)}
	return ln.dial(ctx, local)
}

func (s *Server) initCA() error {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return err
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "pornweb study CA", Organization: []string{"Measurement Substrate"}},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(24 * 365 * time.Hour),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return err
	}
	s.caCert, s.caKey = cert, key
	s.caPool = x509.NewCertPool()
	s.caPool.AddCert(cert)
	return nil
}

var errNoTLS = errors.New("webserver: host does not support TLS")

// getCertificate issues (and caches) a leaf certificate for the SNI host,
// carrying the organization the ecosystem planted for it. HTTP-only hosts
// get a handshake failure.
func (s *Server) getCertificate(hello *tls.ClientHelloInfo) (*tls.Certificate, error) {
	host := strings.ToLower(hello.ServerName)
	if host == "" || !s.Eco.HTTPSCapable(host) {
		s.met.tlsRefused.Inc()
		s.log.Event(obs.LevelDebug, "tls handshake refused", "host", host)
		return nil, errNoTLS
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.certs[host]; ok {
		s.met.tlsServed.Inc()
		return c, nil
	}
	c, err := s.issue(host)
	if err != nil {
		s.log.Event(obs.LevelError, "cert minting failed", "host", host, "err", err)
		return nil, err
	}
	s.met.certsMinted.Inc()
	s.met.tlsServed.Inc()
	s.certs[host] = c
	return c, nil
}

func (s *Server) issue(host string) (*tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	serial, err := rand.Int(rand.Reader, big.NewInt(1<<62))
	if err != nil {
		return nil, err
	}
	subject := pkix.Name{CommonName: host}
	if org := s.Eco.CertOrgFor(host); org != "" {
		subject.Organization = []string{org}
	} else {
		// Certificates that name only the domain (the paper skips these
		// when attributing organizations, footnote 7).
		subject.Organization = []string{host}
	}
	tmpl := &x509.Certificate{
		SerialNumber: serial,
		Subject:      subject,
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(90 * 24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:     []string{host, "*." + host},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, s.caCert, &key.PublicKey, s.caKey)
	if err != nil {
		return nil, err
	}
	return &tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}

// isServiceHost reports whether the host is a third-party service (visited
// repeatedly across the crawl and worth keeping alive).
func (s *Server) isServiceHost(host string) bool {
	_, ok := s.Eco.ServiceByHost[strings.ToLower(host)]
	return ok
}

// countRequest updates the per-vhost request telemetry. Per-host counters
// are kept only for service hosts — the bounded set of trackers contacted
// from thousands of sites — so label cardinality stays flat while the
// per-site long tail aggregates into one counter per kind.
func (s *Server) countRequest(host string, secure bool) {
	if s.reg == nil {
		return
	}
	if secure {
		s.met.reqSecure.Inc()
	}
	switch {
	case s.isServiceHost(host):
		s.met.reqService.Inc()
		s.mu.Lock()
		c, ok := s.vhosts[host]
		if !ok {
			c = s.reg.Counter("webserver_vhost_requests_total", "host", host)
			s.vhosts[host] = c
		}
		s.mu.Unlock()
		c.Inc()
	case s.Eco.SiteByHost[host] != nil:
		s.met.reqSite.Inc()
	default:
		s.met.reqOther.Inc()
	}
}

// handle adapts net/http to the ecosystem's virtual server. The client
// IP it passes on comes from r.RemoteAddr, which both transports report
// as 127.0.0.1; cookies that embed the client IP depend on it.
func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	host := r.Host
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	s.countRequest(strings.ToLower(host), r.TLS != nil)
	clientIP := r.RemoteAddr
	if h, _, err := net.SplitHostPort(clientIP); err == nil {
		clientIP = h
	}
	cookies := map[string]string{}
	for _, c := range r.Cookies() {
		cookies[c.Name] = c.Value
	}
	phase := webgen.PhaseCrawl
	switch r.Header.Get(HeaderPhase) {
	case "sanitize":
		phase = webgen.PhaseSanitize
	case "policy":
		phase = webgen.PhasePolicy
	}
	country := r.Header.Get(HeaderCountry)
	if country == "" {
		country = "ES" // the paper's physical vantage point
	}
	req := webgen.Request{
		Host:     host,
		Path:     r.URL.Path,
		Query:    r.URL.Query(),
		Country:  country,
		ClientIP: clientIP,
		Cookies:  cookies,
		Referer:  r.Referer(),
		Secure:   r.TLS != nil,
		Phase:    phase,
	}
	if f := s.Eco.FaultFor(host, country, phase); f.Kind != webgen.FaultNone {
		if s.applyFault(w, r, host, f, req) {
			return
		}
	}
	resp := s.Eco.Respond(req)
	if resp.Status == 0 {
		// Connection refused / dead host: cut the stream without an HTTP
		// response so the client sees a transport error.
		s.refuse(w, host)
		return
	}
	for _, c := range resp.Cookies {
		hc := &http.Cookie{Name: c.Name, Value: c.Value, Path: "/"}
		if !c.Session {
			hc.MaxAge = 365 * 24 * 3600
			hc.Expires = time.Now().Add(365 * 24 * time.Hour)
		}
		http.SetCookie(w, hc)
	}
	// Connection discipline: site hosts and long-tail asset hosts are
	// contacted once per crawl, so the server closes those connections
	// after one response. Tracker hosts are contacted from thousands of
	// sites and stay keep-alive for connection reuse. Together with the
	// crawler's pool settings this fixes the traffic shape the run
	// reports: handshakes per visit and requests per handshake.
	if !s.isServiceHost(host) {
		w.Header().Set("Connection", "close")
	}
	if resp.ContentType != "" {
		w.Header().Set("Content-Type", resp.ContentType)
	}
	if resp.Location != "" {
		w.Header().Set("Location", resp.Location)
	}
	status := resp.Status
	if status == 0 {
		status = http.StatusOK
	}
	w.WriteHeader(status)
	if resp.Body != "" {
		w.Write([]byte(resp.Body))
	}
}

// refuse cuts the connection without an HTTP response so the client
// sees a transport error — the wire behaviour of a dead or refusing
// host.
func (s *Server) refuse(w http.ResponseWriter, host string) {
	s.met.refusals.Inc()
	s.log.Event(obs.LevelDebug, "refusing connection", "host", host)
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	// TLS connections cannot always hijack; a bare 502 with the
	// sentinel header is the fallback the crawler also treats as
	// unreachable.
	w.Header().Set("X-Refused", "1")
	w.WriteHeader(http.StatusBadGateway)
}

// countFault records one injected fault, globally by kind and per vhost
// for service hosts (same cardinality discipline as countRequest).
func (s *Server) countFault(host string, kind webgen.FaultKind) {
	if s.reg == nil {
		return
	}
	s.reg.Counter("webserver_faults_injected_total", "kind", kind.String()).Inc()
	if s.isServiceHost(host) {
		s.reg.Counter("webserver_vhost_faults_total", "host", host).Inc()
	}
}

// applyFault realizes one fault decision on the wire. It reports
// whether the request was fully handled; latency returns false so the
// (delayed) normal response still flows.
func (s *Server) applyFault(w http.ResponseWriter, r *http.Request, host string, f webgen.Fault, req webgen.Request) bool {
	s.countFault(host, f.Kind)
	switch f.Kind {
	case webgen.FaultLatency:
		// Slow-loris: hold the response open for the injected delay (or
		// until the client gives up).
		t := time.NewTimer(f.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-r.Context().Done():
			return true
		}
		return false
	case webgen.FaultServerError:
		if f.RetryAfter > 0 {
			secs := int(f.RetryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		w.Header().Set("Content-Type", "text/html")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "<html><body><h1>503</h1>transient backend failure</body></html>")
		return true
	case webgen.FaultDrop:
		s.refuse(w, host)
		return true
	case webgen.FaultRedirectLoop:
		// Two paths 302-ing at each other: any client following
		// redirects revisits a URL after two hops.
		next := "/fault/loop-a"
		if r.URL.Path == "/fault/loop-a" {
			next = "/fault/loop-b"
		}
		w.Header().Set("Location", next)
		w.WriteHeader(http.StatusFound)
		return true
	case webgen.FaultTruncate:
		// Declare the healthy body's length but send only half; the
		// handler returning early makes net/http cut the connection and
		// the client's body read fails with unexpected EOF.
		resp := s.Eco.Respond(req)
		if resp.Status == 0 || len(resp.Body) < 2 {
			s.refuse(w, host)
			return true
		}
		if resp.ContentType != "" {
			w.Header().Set("Content-Type", resp.ContentType)
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(resp.Body)))
		status := resp.Status
		if status == 0 {
			status = http.StatusOK
		}
		w.WriteHeader(status)
		io.WriteString(w, resp.Body[:len(resp.Body)/2])
		return true
	case webgen.FaultReset:
		s.resetMidStream(w, host, req)
		return true
	}
	return false
}

// resetMidStream writes a partial raw response and then aborts the
// stream, so the client reads "connection reset by peer" instead of a
// clean EOF.
func (s *Server) resetMidStream(w http.ResponseWriter, host string, req webgen.Request) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		// No hijack (should not happen on HTTP/1.1): degrade to refusal.
		s.refuse(w, host)
		return
	}
	conn, bufrw, err := hj.Hijack()
	if err != nil {
		s.refuse(w, host)
		return
	}
	resp := s.Eco.Respond(req)
	body := resp.Body
	if body == "" {
		body = "<html><body>partial</body></html>"
	}
	fmt.Fprintf(bufrw, "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body[:len(body)/2])
	bufrw.Flush()
	abortConn(conn)
}

// abortConn aborts conn the way a TCP RST does. For TLS streams the
// underlying connection is aborted directly — a tls.Conn.Close would
// send close_notify first, which the client would read as a clean EOF
// rather than a reset. An in-memory conn is reset in place; a socket
// from ListenTCP is closed with SO_LINGER 0.
func abortConn(conn net.Conn) {
	raw := conn
	if tc, ok := conn.(*tls.Conn); ok {
		raw = tc.NetConn()
	}
	switch c := raw.(type) {
	case *memConn:
		c.reset()
	case *net.TCPConn:
		c.SetLinger(0)
		c.Close()
	default:
		conn.Close()
	}
}
