// Package pornweb is a complete, self-contained reproduction of "Tales
// from the Porn: A Comprehensive Privacy Analysis of the Web Porn
// Ecosystem" (Vallina et al., IMC 2019).
//
// The library bundles everything the study needs into one module:
//
//   - a deterministic synthetic web-ecosystem generator calibrated to the
//     paper's measured distributions (sites, trackers, cookies, sync
//     partnerships, fingerprinting scripts, consent surfaces, geographic
//     behaviour);
//   - an HTTP/HTTPS substrate serving that ecosystem with real TLS,
//     per-host certificates and virtual hosting over in-memory
//     connections (and on loopback sockets on request);
//   - an instrumented crawler and page-loading engine (the OpenWPM
//     analog) plus an interactive crawler (the Selenium analog);
//   - the full analysis pipeline behind every table and figure of the
//     paper's evaluation: third-party censuses, organization attribution,
//     cookie identifier/sync analyses, fingerprinting heuristics, HTTPS
//     and malware measurements, geographic comparison, and the
//     GDPR/Digital-Economy-Act compliance audits.
//
// The quickest way in:
//
//	st, err := pornweb.NewStudy(pornweb.StudyConfig{
//	    Params: pornweb.Params{Seed: 2019, Scale: 0.05},
//	})
//	if err != nil { ... }
//	defer st.Close()
//	results, err := st.Run(context.Background())
//	pornweb.Report(os.Stdout, results)
//
// Scale 1.0 reproduces the paper's corpus sizes (6,843 pornographic and
// 9,688 regular websites); smaller scales shrink the population
// proportionally while preserving every distribution the analyses measure.
//
// The package examples walk through the paper at a tiny scale:
// Example_quickstart prints the headline findings and three tables,
// Example_trackingAudit the Section 5 tracker deep-dive,
// Example_geoStudy the Section 6 six-country comparison and
// Example_complianceAudit the Section 7 banner, age-gate and policy
// audit. `go test` runs them and checks their output.
//
// Run executes the pipeline as a dependency graph on internal/sched:
// independent crawls and analyses overlap, bounded by
// StudyConfig.StageWorkers (default NumCPU; 1 runs one stage at a time).
// Every worker count, shard count and resume produces identical results —
// TestScheduleEquivalence, TestShardEquivalence and TestManifestEquivalence
// in this package pin identical Results, report and manifest bytes across
// them, and internal/core's TestResumeEquivalence pins resumed manifests.
//
// This package is a thin facade over the implementation packages; the
// exported aliases below are the stable public API.
package pornweb

import (
	"io"

	"pornweb/internal/core"
	"pornweb/internal/obs"
	"pornweb/internal/report"
	"pornweb/internal/resilience"
	"pornweb/internal/webgen"
	"pornweb/internal/webserver"
)

// Params configures ecosystem generation: Seed drives all randomness,
// Scale scales the population (1.0 = the paper's corpus sizes).
type Params = webgen.Params

// Ecosystem is a fully generated synthetic web: ground-truth sites,
// services and companies, plus the virtual-server behaviour the crawlers
// observe.
type Ecosystem = webgen.Ecosystem

// Site is one generated website with its planted privacy behaviour.
type Site = webgen.Site

// Service is one generated third-party service.
type Service = webgen.Service

// Server hosts an ecosystem over in-memory HTTP and HTTPS.
type Server = webserver.Server

// StudyConfig configures a full measurement run.
type StudyConfig = core.Config

// Study is a wired measurement environment: ecosystem, server, rank
// oracle and blocklists.
type Study = core.Study

// Results holds every reproduced table and figure.
type Results = core.Results

// Generate builds an ecosystem deterministically from the parameters.
func Generate(p Params) *Ecosystem { return webgen.Generate(p) }

// DefaultParams returns paper-scale generation parameters.
func DefaultParams() Params { return webgen.DefaultParams() }

// Serve starts the in-memory server for an ecosystem; it binds no socket.
// Reach it through Server.DialContext, or call Server.ListenTCP for
// loopback addresses. Callers must Close it.
func Serve(eco *Ecosystem) (*Server, error) { return webserver.Start(eco) }

// NewStudy generates an ecosystem and starts its server, ready to Run.
func NewStudy(cfg StudyConfig) (*Study, error) { return core.NewStudy(cfg) }

// Report renders every table and figure of a completed run as aligned
// plain text.
func Report(w io.Writer, r *Results) { report.All(w, r) }

// Observability. Every study collects metrics and stage spans; set
// StudyConfig.MetricsAddr to expose them over HTTP (/metrics in
// Prometheus text format, /spans as JSON, /debug/pprof/), or pass your
// own MetricsRegistry in StudyConfig.Metrics to scrape it in-process.

// MetricsRegistry is the thread-safe metrics registry (counters, gauges,
// latency histograms) the study's layers record into.
type MetricsRegistry = obs.Registry

// Tracer records recent pipeline-stage spans into a bounded ring buffer.
type Tracer = obs.Tracer

// Logger is the structured leveled logger carried by StudyConfig.Logger.
type Logger = obs.Logger

// LogLevel is a Logger severity.
type LogLevel = obs.Level

// Log severities accepted by NewLogger.
const (
	LogDebug = obs.LevelDebug
	LogInfo  = obs.LevelInfo
	LogWarn  = obs.LevelWarn
	LogError = obs.LevelError
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewLogger returns a logger writing lines at or above min to w.
func NewLogger(w io.Writer, min LogLevel) *Logger { return obs.NewLogger(w, min) }

// Robustness. Params.Faults injects deterministic chaos into the
// generated ecosystem (transient 5xx bursts, dropped connections,
// truncated bodies, mid-stream resets, redirect loops, latency, HTTP
// 451 geo-blocks); StudyConfig.Resilience arms the crawl path against
// it (bounded retries with full-jitter backoff and a per-host circuit
// breaker). Results.Robustness reports what was lost and why.

// FaultProfile configures fault injection; the zero value disables it.
type FaultProfile = webgen.FaultProfile

// RetryPolicy configures crawl-path retries and the per-host circuit
// breaker; the zero value means single-shot requests, no breaker.
type RetryPolicy = resilience.Policy

// FailureClass is one bucket of the crawl failure taxonomy.
type FailureClass = resilience.Class

// RobustnessResult is the study's aggregated failure taxonomy:
// per-vantage site loss plus failed visits and requests by class.
type RobustnessResult = core.RobustnessResult

// DefaultFaultProfile returns a moderate chaos mix: roughly a fifth of
// hosts transiently faulty, all recoverable within the retry burst.
func DefaultFaultProfile() FaultProfile { return webgen.DefaultFaultProfile() }

// FailureClasses lists the failure taxonomy in report order.
func FailureClasses() []FailureClass { return resilience.Classes() }
