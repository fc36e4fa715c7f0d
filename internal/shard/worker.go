package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"pornweb/internal/obs"
	"pornweb/internal/resilience"
)

// Runner executes one shard assignment against a study: visit every
// host of the shard and return the visits in their durable serialized
// form. *core.Study implements it; tests substitute fakes.
type Runner interface {
	RunShard(ctx context.Context, a Assignment, kill *KillSwitch) (*Result, error)
}

// Worker is a coordinator's handle on one member of the fleet, local
// or remote. Run executes one assignment to completion; an error
// retires the worker and requeues the shard.
type Worker interface {
	Name() string
	Run(ctx context.Context, a Assignment) (*Result, error)
}

// LocalWorker runs assignments in-process against a Runner — the
// cheap fleet for tests and benchmarks, where N workers share one
// study and true process isolation is the shardci gate's job. Kill,
// when set, injects the seeded worker death.
type LocalWorker struct {
	Label  string
	Runner Runner
	Kill   *KillSwitch
}

// Name implements Worker.
func (w *LocalWorker) Name() string { return w.Label }

// Run implements Worker: a dead worker fails immediately (a crashed
// process does not answer), a live one runs the shard under its kill
// switch and stamps the result with its name.
func (w *LocalWorker) Run(ctx context.Context, a Assignment) (*Result, error) {
	if w.Kill.Dead() {
		return nil, fmt.Errorf("shard: worker %s: %w", w.Label, ErrWorkerKilled)
	}
	r, err := w.Runner.RunShard(ctx, a, w.Kill)
	if err != nil {
		return nil, fmt.Errorf("shard: worker %s: %w", w.Label, err)
	}
	r.Worker = w.Label
	return r, nil
}

// RemoteWorker is a coordinator's handle on a worker process reached
// over loopback HTTP. Every request routes through the resilience
// controller — bounded seeded-jitter retries and the per-host breaker
// — per the crawl path's transport contract.
type RemoteWorker struct {
	Label string
	// Addr is the worker server's host:port; MetricsAddr its admin
	// listener's, "" when the worker exposes none. MetricsAddr is
	// surfaced in the /fleet report so each worker stays individually
	// scrapeable.
	Addr        string
	MetricsAddr string
	Client      *http.Client
	Ctrl        *resilience.Controller
}

// Name implements Worker.
func (w *RemoteWorker) Name() string { return w.Label }

// Run implements Worker: frame the assignment, POST it to the worker's
// /run endpoint, and decode the framed result. A 409 is the worker
// refusing a foreign config fingerprint and a 400 an assignment it
// could not decode (ErrBadFrame); neither is retried.
func (w *RemoteWorker) Run(ctx context.Context, a Assignment) (*Result, error) {
	frame, err := EncodeAssignment(&a)
	if err != nil {
		return nil, err
	}
	status, body, err := postRouted(ctx, w.Client, w.Ctrl, "http://"+w.Addr+"/run", frame)
	if err != nil {
		return nil, fmt.Errorf("shard: worker %s: %w", w.Label, err)
	}
	switch status {
	case http.StatusOK:
	case http.StatusConflict:
		return nil, fmt.Errorf("shard: worker %s: %s: %w", w.Label,
			strings.TrimSpace(string(body)), ErrFingerprintMismatch)
	case http.StatusBadRequest:
		// The worker could not decode the assignment: most likely a
		// peer on another wire version.
		return nil, fmt.Errorf("shard: worker %s: %s: %w", w.Label,
			strings.TrimSpace(string(body)), ErrBadFrame)
	default:
		return nil, fmt.Errorf("shard: worker %s: HTTP %d: %s", w.Label, status,
			strings.TrimSpace(string(body)))
	}
	r, err := DecodeResult(body)
	if err != nil {
		return nil, fmt.Errorf("shard: worker %s: %w", w.Label, err)
	}
	return r, nil
}

// Shutdown asks the worker process to exit cleanly. Best-effort: a
// worker that already died satisfies the intent.
func (w *RemoteWorker) Shutdown(ctx context.Context) error {
	status, body, err := postRouted(ctx, w.Client, w.Ctrl, "http://"+w.Addr+"/shutdown", nil)
	if err != nil {
		return fmt.Errorf("shard: worker %s shutdown: %w", w.Label, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("shard: worker %s shutdown: HTTP %d: %s", w.Label, status,
			strings.TrimSpace(string(body)))
	}
	return nil
}

// Registration is the JSON body a worker POSTs to the coordinator's
// /register endpoint. MetricsAddr, when non-empty, is the worker's own
// admin listener, reported so the coordinator's /fleet view can link to
// each worker's scrape endpoint.
type Registration struct {
	Name        string `json:"name"`
	Addr        string `json:"addr"`
	MetricsAddr string `json:"metrics_addr,omitempty"`
}

// Register announces a worker to the coordinator and retries (through
// the controller's policy) until the coordinator answers — workers and
// coordinator start concurrently, so the first attempts may land
// before the registration listener is up.
func Register(ctx context.Context, client *http.Client, ctrl *resilience.Controller, coordinatorAddr string, reg Registration) error {
	body, err := json.Marshal(reg)
	if err != nil {
		return fmt.Errorf("shard: register: %w", err)
	}
	status, resp, err := postRouted(ctx, client, ctrl, "http://"+coordinatorAddr+"/register", body)
	if err != nil {
		return fmt.Errorf("shard: register %s with %s: %w", reg.Name, coordinatorAddr, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("shard: register %s with %s: HTTP %d: %s", reg.Name, coordinatorAddr,
			status, strings.TrimSpace(string(resp)))
	}
	return nil
}

// postRouted is the package's single transport path: every control-
// plane POST — assignment dispatch, registration, shutdown — runs
// through the resilience controller's breaker and bounded retries, so
// a flaky loopback hop degrades into the same measured, policy-driven
// behavior as a flaky crawl target. Returns the terminal status and
// body; err is non-nil only when every attempt failed to produce a
// response.
func postRouted(ctx context.Context, client *http.Client, ctrl *resilience.Controller, url string, body []byte) (int, []byte, error) {
	if client == nil {
		client = http.DefaultClient
	}
	host := url
	if i := strings.Index(url, "//"); i >= 0 {
		host = url[i+2:]
		if j := strings.IndexByte(host, '/'); j >= 0 {
			host = host[:j]
		}
	}
	attempts := ctrl.Policy().MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if !resilience.Sleep(ctx, ctrl.Delay(attempt-1, 0)) {
				return 0, nil, ctx.Err()
			}
		}
		if err := ctrl.Allow(host); err != nil {
			lastErr = err
			continue
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return 0, nil, fmt.Errorf("shard: build request: %w", err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		//studylint:ignore rawhttp postRouted is the shard control plane's single sanctioned transport call: this Do runs under the resilience Allow/Report/Delay retry loop, so it IS the routed path
		resp, err := client.Do(req)
		if err != nil {
			ctrl.Report(host, false)
			lastErr = err
			if !resilience.Retryable(err) {
				break
			}
			continue
		}
		respBody, err := readMessage(resp.Body, resp.ContentLength)
		if cerr := resp.Body.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			ctrl.Report(host, false)
			lastErr = err
			if errors.Is(err, ErrBadFrame) {
				break // over the cap: a retry would get the same body
			}
			continue
		}
		if resilience.RetryableStatus(resp.StatusCode) && attempt < attempts {
			ctrl.Report(host, false)
			lastErr = fmt.Errorf("shard: HTTP %d from %s", resp.StatusCode, url)
			continue
		}
		ctrl.Report(host, true)
		return resp.StatusCode, respBody, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("shard: no attempts admitted to %s", url)
	}
	return 0, nil, lastErr
}

// Server is the worker process's face: a loopback HTTP listener
// answering /run (execute a framed assignment), /healthz, and
// /shutdown (signal the process to exit). It refuses assignments whose
// config fingerprint or seed differ from its own, the same binding the
// durable store's segment header enforces, with HTTP 409.
type Server struct {
	// Label names the worker in results and logs.
	Label string
	// Runner executes assignments; Fingerprint and Seed are the study
	// identity the server will accept work for.
	Runner      Runner
	Fingerprint string
	Seed        int64
	// Kill, when set, injects the seeded worker death into every run.
	Kill *KillSwitch

	// Registry, Tracer and Flight are the worker's own observability
	// plane; when set (and the assignment asks for telemetry) each
	// result carries the registry delta, spans and flight events the
	// shard produced, and spans parent under the propagated trace
	// context. All nil leaves telemetry off — the result is then pure
	// data, which the coordinator tolerates (marked "partial" in
	// /fleet). MetricsAddr, when non-empty, is echoed in telemetry so
	// the fleet view can link to this worker's own admin listener.
	Registry    *obs.Registry
	Tracer      *obs.Tracer
	Flight      *obs.FlightRecorder
	MetricsAddr string

	mu sync.Mutex
	// guarded by mu
	ln net.Listener
	// guarded by mu
	srv *http.Server
	// done is set once in Start (under mu, before the listener serves)
	// and closed through once, so readers of the closed channel need no
	// lock.
	done chan struct{}
	once sync.Once

	// runMu serializes /run handling: the coordinator deals one shard
	// per worker per wave, so contention is not expected — the lock
	// exists so the telemetry delta brackets exactly one shard's
	// activity even if a client misbehaves.
	runMu sync.Mutex
	// guarded by runMu
	lastSnap *obs.Snapshot
}

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// serves in the background. Addr reports the bound address.
func (s *Server) Start(addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		return fmt.Errorf("shard: server already started on %s", s.ln.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("shard: worker listen %s: %w", addr, err)
	}
	s.ln = ln
	s.done = make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/shutdown", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		_, _ = io.WriteString(w, "shutting down\n")
		s.once.Do(func() { close(s.done) })
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	s.srv = srv
	// The goroutine serves on locals: reading s.srv there would race
	// Close, which nils the field under mu.
	go func() { _ = srv.Serve(ln) }() // Serve always errors on Close; nothing to report
	return nil
}

// Addr returns the bound listen address, or "" before Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Done is closed when a /shutdown request arrives.
func (s *Server) Done() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// Close tears the listener down. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.srv = nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	s.once.Do(func() { close(s.done) })
	if err := srv.Close(); err != nil {
		return fmt.Errorf("shard: worker close: %w", err)
	}
	return nil
}

// handleRun executes one framed assignment and answers with the framed
// result. When the assignment carries trace context, the shard runs
// under a span parented to the coordinator's dispatch span; when it asks
// for telemetry (and the server has an observability plane), the result
// carries the registry delta, spans and flight events the shard
// produced.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := readMessage(r.Body, r.ContentLength)
	if err != nil {
		http.Error(w, fmt.Sprintf("read assignment: %v", err), http.StatusBadRequest)
		return
	}
	a, err := DecodeAssignment(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if a.Fingerprint != s.Fingerprint || a.Seed != s.Seed {
		http.Error(w, fmt.Sprintf("assignment fingerprint %s seed %d, worker built for %s seed %d",
			a.Fingerprint, a.Seed, s.Fingerprint, s.Seed), http.StatusConflict)
		return
	}
	s.runMu.Lock()
	defer s.runMu.Unlock()

	// Adopt the propagated trace context: stamp the run trace ID into
	// everything this tracer records from now on and open the shard's
	// root span under the coordinator's dispatch span.
	ctx := r.Context()
	var span *obs.Span
	if s.Tracer != nil && a.TraceID != "" {
		s.Tracer.SetTraceID(a.TraceID)
		ctx, span = s.Tracer.StartRemote(ctx, "shard/run", a.ParentSpan)
		span.SetAttr("stage", a.Stage)
		span.SetAttr("shard", fmt.Sprintf("%d/%d", a.Shard, a.Shards))
		span.SetAttr("worker", s.Label)
	}
	capture := a.Telemetry && s.Registry != nil
	var preSpanID, preKept uint64
	if capture {
		if s.lastSnap == nil {
			// Baseline at the first shard: study construction happened
			// before any assignment and belongs to no shard's delta.
			s.lastSnap = s.Registry.Snapshot()
		}
		preSpanID = maxSpanID(s.Tracer.Recent())
		_, preKept, _ = s.Flight.Stats()
	}

	res, err := s.Runner.RunShard(ctx, *a, s.Kill)
	if err != nil {
		span.SetAttr("error", err.Error())
		span.End()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	res.Worker = s.Label
	span.End() // before span collection, so the shard's root span ships too
	if capture {
		snap := s.Registry.Snapshot()
		tel := &Telemetry{
			Worker:      s.Label,
			MetricsAddr: s.MetricsAddr,
			TraceID:     a.TraceID,
			Metrics:     snap.DeltaFrom(s.lastSnap),
		}
		s.lastSnap = snap
		for _, sp := range s.Tracer.Recent() {
			if sp.ID > preSpanID {
				tel.Spans = append(tel.Spans, sp)
			}
		}
		if s.Flight != nil {
			_, kept, _ := s.Flight.Stats()
			evs := s.Flight.Events()
			if n := int(kept - preKept); n > 0 {
				if n > len(evs) {
					n = len(evs)
				}
				tel.Flight = append(tel.Flight, evs[len(evs)-n:]...)
			}
		}
		res.Telemetry = tel
	}
	frame, err := EncodeResult(res)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	_, _ = w.Write(frame)
}

// maxSpanID returns the highest span ID in spans (0 for none): the
// telemetry capture's high-water mark for "spans this shard produced".
func maxSpanID(spans []obs.SpanRecord) uint64 {
	var max uint64
	for _, s := range spans {
		if s.ID > max {
			max = s.ID
		}
	}
	return max
}
