// Package core orchestrates the full measurement study: corpus compilation
// and sanitization (Section 3), the dual crawls (instrumented OpenWPM-
// analog and interactive Selenium-analog), and every analysis behind the
// paper's tables and figures — third-party ecosystems (Section 4), privacy
// risks (Section 5), geographic differences (Section 6), and regulatory
// compliance (Section 7). The Results struct holds one field per
// experiment; internal/report renders them as the rows the paper prints.
package core

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pornweb/internal/blocklist"
	"pornweb/internal/crawler"
	"pornweb/internal/obs"
	"pornweb/internal/provenance"
	"pornweb/internal/ranking"
	"pornweb/internal/resilience"
	"pornweb/internal/shard"
	"pornweb/internal/store"
	"pornweb/internal/webgen"
	"pornweb/internal/webserver"
)

// Config configures a study run.
type Config struct {
	Params webgen.Params
	// Countries to run the geographic crawls from; defaults to the paper's
	// six vantage points. The main crawl always runs from Spain.
	Countries []string
	// Workers is the crawl parallelism (default 8): how many page visits
	// one crawl stage runs concurrently.
	Workers int
	// StageWorkers bounds how many *pipeline stages* (vantage crawls and
	// analyses) the DAG scheduler runs concurrently; 0 defaults to
	// runtime.NumCPU(), and 1 runs one stage at a time. Orthogonal to
	// Workers: total in-flight page loads peak at StageWorkers x Workers.
	StageWorkers int
	// Timeout bounds a single page load (the paper used 120 s; the
	// in-memory substrate needs far less).
	Timeout time.Duration
	// Logger is the structured leveled logger for the whole study. When
	// nil, one is built that discards output.
	Logger *obs.Logger
	// Metrics is the registry every layer (crawler, browser, webserver,
	// blocklists, pipeline stages) registers into. When nil a fresh
	// registry is created, so metrics are always collected; set
	// MetricsAddr to expose them.
	Metrics *obs.Registry
	// MetricsAddr, when non-empty, starts an admin HTTP listener on that
	// address (host:port, port 0 picks a free one) serving /metrics
	// (Prometheus text format), /spans (recent stage spans as JSON) and
	// /debug/pprof/. Empty means no listener.
	MetricsAddr string
	// SpanBuffer is the tracing ring-buffer capacity (default 4096).
	SpanBuffer int
	// Resilience configures bounded retries and the per-host circuit
	// breaker for every crawl session. The zero value keeps the
	// historical single-shot behaviour.
	Resilience resilience.Policy
	// PageBudget bounds one full page visit including retries; 0 derives
	// 4×Timeout when Resilience is active.
	PageBudget time.Duration
	// FlightSample keeps 1 in N successful visit events; failed visits
	// are always kept. <= 1 keeps every event.
	FlightSample int
	// FlightSink, when non-nil, receives every kept visit event as one
	// NDJSON line (in addition to the bounded ring served at /flight).
	FlightSink io.Writer

	// StoreDir, when non-empty, opens the durable visit store in that
	// directory: every completed visit is appended as it finishes, so a
	// crashed run can resume instead of starting over. Empty keeps the
	// historical in-memory-only behaviour.
	StoreDir string
	// StoreResume reopens an existing store directory, replays its log
	// (truncating a torn tail) and lets crawl stages skip the visits
	// already durable. The store's fingerprint and seed must match this
	// config: a mismatch fails NewStudy with store.ErrFingerprintMismatch.
	StoreResume bool
	// StoreSyncEvery overrides the store's batched-fsync cadence
	// (default 16 appends per fsync; 1 syncs every visit).
	StoreSyncEvery int
	// StoreKill injects a crash at a seeded store append — the
	// crash-safety harness's lever. Nil in production.
	StoreKill *store.KillSwitch

	// Shards, when > 1, partitions every named crawl stage's host list
	// by registrable domain into this many shards and dispatches them
	// across a worker fleet instead of crawling in-process. The merged
	// results — and the run manifest — are byte-identical to an
	// unsharded run's (the shard-equivalence gate's claim). 0 or 1
	// crawls in-process.
	Shards int
	// ShardWorkers sizes the in-process local worker fleet (default:
	// one worker per shard). Ignored when CoordinatorAddr is set —
	// remote worker processes register themselves instead.
	ShardWorkers int
	// CoordinatorAddr, when non-empty, opens the shard coordinator's
	// registration listener on that address (host:port, port 0 picks a
	// free one); worker processes started with `pornstudy -worker` join
	// the fleet by POSTing to /register. Empty keeps the fleet
	// in-process.
	CoordinatorAddr string
	// ShardMinWorkers is how many registered workers each dispatch
	// waits for before dealing shards (default 1). Only meaningful with
	// CoordinatorAddr.
	ShardMinWorkers int
	// ShardKill injects a worker death at a seeded visit into the first
	// local worker — the reassignment harness's lever. Nil in
	// production.
	ShardKill *shard.KillSwitch
	// FleetTelemetryOff disables the fleet observability return path:
	// assignments stop asking workers for metric deltas, spans and
	// flight events. Purely an observability knob — it is excluded from
	// the config fingerprint and can never change the manifest.
	FleetTelemetryOff bool
}

func (c Config) withDefaults() Config {
	if len(c.Countries) == 0 {
		c.Countries = append([]string{}, webgen.Countries...)
	}
	if c.Workers == 0 {
		c.Workers = 8
	}
	if c.StageWorkers == 0 {
		c.StageWorkers = runtime.NumCPU()
	}
	if c.Timeout == 0 {
		c.Timeout = 15 * time.Second
	}
	if c.SpanBuffer == 0 {
		c.SpanBuffer = 4096
	}
	if c.Params.Scale == 0 {
		c.Params = webgen.DefaultParams()
	}
	return c
}

// flightCapacity is the per-visit flight-recorder ring capacity.
const flightCapacity = 4096

// Study is a fully wired measurement environment: the generated ecosystem,
// its in-memory server, the longitudinal rank dataset and the blocklists.
type Study struct {
	Cfg  Config
	Eco  *webgen.Ecosystem
	Srv  *webserver.Server
	Rank *ranking.Dataset
	// EasyList is the merged EasyList+EasyPrivacy used for ATS
	// classification.
	EasyList *blocklist.List

	// Metrics is the study-wide registry; Tracer holds recent stage
	// spans; Log is the structured logger. All three are always non-nil
	// after NewStudy.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	Log     *obs.Logger
	// Flight is the per-visit flight recorder, a ring of flightCapacity
	// events; always non-nil after NewStudy.
	Flight *obs.FlightRecorder

	// Provenance and RunInfo are filled by Run: the deterministic run
	// manifest and its volatile wall-clock sidecar. They live on the
	// Study, not in Results, so result-equivalence comparisons stay
	// byte-exact across schedules.
	Provenance *provenance.Manifest
	RunInfo    *provenance.RunInfo

	// store is the durable visit log (nil without Cfg.StoreDir); storeErrs
	// counts persistence failures the crawl survived.
	store     store.Store
	storeErrs *obs.Counter

	// coord is the shard coordinator (nil unless Cfg.Shards > 1);
	// fingerprint the config fingerprint every shard assignment and the
	// durable store are bound to. shardStages collects each sharded
	// stage's per-shard digests for the shards.json sidecar.
	coord       *shard.Coordinator
	fingerprint string
	shardMu     sync.Mutex
	shardStages map[string]provenance.ShardStage

	// probes memoises the per-host TLS probe behind ProbeTLS and
	// ProbeCertOrgs, so each host is dialled once per study.
	probeMu sync.Mutex
	// guarded by probeMu
	probes map[string]*hostProbe

	prov  *provenance.Recorder
	admin *obs.AdminServer
	// clock is the study's injected time source (wall-clock reads are
	// banned in this package by studylint's wallclock analyzer so the
	// deterministic manifest can never grow a timing dependency); it
	// only feeds the volatile runinfo.json sidecar and stage metrics.
	clock func() time.Time
}

// NewStudy generates the ecosystem and starts its server.
func NewStudy(cfg Config) (*Study, error) {
	cfg = cfg.withDefaults()

	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NewLogger(nil, obs.LevelInfo)
	}
	logger = logger.CountIn(reg)
	tracer := obs.NewTracer(cfg.SpanBuffer).CountIn(reg)

	eco := webgen.Generate(cfg.Params)
	srv, err := webserver.Start(eco,
		webserver.WithMetrics(reg),
		webserver.WithLogger(logger))
	if err != nil {
		return nil, fmt.Errorf("core: start server: %w", err)
	}
	el := blocklist.Parse("easylist", eco.BuildEasyList())
	ep := blocklist.Parse("easyprivacy", eco.BuildEasyPrivacy())
	merged := blocklist.Merge("easylist+easyprivacy", el, ep)
	merged.Instrument(reg)
	st := &Study{
		Cfg:      cfg,
		Eco:      eco,
		Srv:      srv,
		Rank:     eco.RankingDataset(),
		EasyList: merged,
		Metrics:  reg,
		Tracer:   tracer,
		Log:      logger,
		Flight:   obs.NewFlightRecorder(flightCapacity, cfg.FlightSample, cfg.FlightSink).CountIn(reg),
		prov:     provenance.NewRecorder(),
		clock:    time.Now,
		probes:   map[string]*hostProbe{},
	}
	fp, err := st.configFingerprint()
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("core: fingerprint config: %w", err)
	}
	st.fingerprint = fp
	if cfg.StoreDir != "" {
		vs, err := store.Open(cfg.StoreDir, store.Options{
			Fingerprint: fp,
			Seed:        int64(cfg.Params.Seed),
			Resume:      cfg.StoreResume,
			SyncEvery:   cfg.StoreSyncEvery,
			Metrics:     reg,
			Tracer:      tracer,
			Kill:        cfg.StoreKill,
		})
		if err != nil {
			srv.Close()
			// Typed errors (store.ErrFingerprintMismatch in particular)
			// stay unwrappable for the caller's exit-code decision.
			return nil, fmt.Errorf("core: open visit store: %w", err)
		}
		st.store = vs
		reg.Describe("study_store_visit_errors_total", "entries the study measured but the store failed to persist")
		st.storeErrs = reg.Counter("study_store_visit_errors_total")
		n, _ := vs.Digest()
		logger.Infof("store: %s open (%d durable visits)", cfg.StoreDir, n)
	}
	if cfg.Shards > 1 {
		coord := shard.NewCoordinator(reg)
		coord.MinWorkers = cfg.ShardMinWorkers
		// Fleet observability plane: one run-level trace ID (a pure
		// function of the fingerprint and seed, so reruns correlate)
		// threads through every assignment, and the coordinator's tracer,
		// registry and flight recorder become the fleet-wide merge points.
		coord.TraceID = obs.MintTraceID(fp, int64(cfg.Params.Seed))
		tracer.SetTraceID(coord.TraceID)
		coord.Tracer = tracer
		coord.Flight = st.Flight
		coord.TelemetryOff = cfg.FleetTelemetryOff
		if cfg.CoordinatorAddr != "" {
			// Remote fleet: workers are separate processes reached over
			// loopback; every control-plane hop routes through a resilience
			// controller (seeded retries plus the per-host breaker), the
			// same transport contract the crawl path honors.
			coord.Client = &http.Client{}
			coord.Ctrl = resilience.NewController(resilience.Policy{
				MaxAttempts: 5,
				Seed:        int64(cfg.Params.Seed),
			})
			if err := coord.Listen(cfg.CoordinatorAddr); err != nil {
				st.Close()
				return nil, fmt.Errorf("core: shard coordinator: %w", err)
			}
			logger.Infof("shard: coordinator listening on %s (%d shards, waiting for %d workers)",
				coord.Addr(), cfg.Shards, cfg.ShardMinWorkers)
		} else {
			n := cfg.ShardWorkers
			if n <= 0 {
				n = cfg.Shards
			}
			for i := 0; i < n; i++ {
				var kill *shard.KillSwitch
				if i == 0 {
					kill = cfg.ShardKill
				}
				coord.AddWorker(&shard.LocalWorker{
					Label:  fmt.Sprintf("local%d", i),
					Runner: st,
					Kill:   kill,
				})
			}
			logger.Infof("shard: %d shards across %d in-process workers", cfg.Shards, n)
		}
		st.coord = coord
	}
	if cfg.MetricsAddr != "" {
		// With a fleet, the admin endpoints become the unified views:
		// /metrics serves the federated registry (coordinator + merged
		// worker deltas), /fleet the per-worker health report, /trace one
		// merged multi-process Perfetto trace. Without one they keep the
		// single-process defaults.
		var extra []obs.Route
		if st.coord != nil {
			extra = []obs.Route{
				{Path: "/metrics", Handler: st.coord.MetricsHandler()},
				{Path: "/fleet", Handler: st.coord.FleetHandler()},
				{Path: "/trace", Handler: st.coord.TraceHandler(tracer)},
			}
		}
		admin, err := obs.ServeAdmin(cfg.MetricsAddr, reg, tracer, st.Flight, extra...)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("core: admin listener: %w", err)
		}
		st.admin = admin
		logger.Infof("observability: http://%s/metrics", admin.Addr())
	}
	return st, nil
}

// AdminAddr returns the admin listener's address, or "" when MetricsAddr
// was unset.
func (st *Study) AdminAddr() string { return st.admin.Addr() }

// Close shuts the server (and the admin listener, if any) down and
// checkpoints and closes the durable store when one is open.
func (st *Study) Close() {
	if st.coord != nil {
		if err := st.coord.Close(); err != nil {
			st.Log.Event(obs.LevelWarn, "shard coordinator close failed", "err", err.Error())
		}
	}
	if err := st.admin.Close(); err != nil {
		st.Log.Event(obs.LevelWarn, "admin listener close failed", "err", err.Error())
	}
	if st.store != nil {
		if err := st.store.Close(); err != nil {
			st.Log.Event(obs.LevelWarn, "store close failed", "err", err.Error())
		}
	}
	st.Srv.Close()
}

// VisitStore exposes the durable visit store, nil when Cfg.StoreDir
// was unset. Callers may read (Get/Has/Scan/Digest) freely; writes are
// the crawl stages' job.
func (st *Study) VisitStore() store.Store { return st.store }

// session opens an instrumented session for a vantage country and crawl
// phase. The caller owns it and closes it when its stage ends.
func (st *Study) session(country, phase string) (*crawler.Session, error) {
	return crawler.NewSession(crawler.Config{
		DialContext: st.Srv.DialContext,
		RootCAs:     st.Srv.CertPool(),
		Country:     country,
		Phase:       phase,
		Timeout:     st.Cfg.Timeout,
		Metrics:     st.Metrics,
		Retry:       st.Cfg.Resilience,
		PageBudget:  st.Cfg.PageBudget,
	})
}
