// Command pornstudy runs the complete measurement study against a freshly
// generated synthetic web ecosystem and prints every table and figure of
// the paper's evaluation.
//
// Usage:
//
//	pornstudy [-scale 0.05] [-seed 2019] [-workers 16] [-timeout 30s] [-v]
//	          [-stage-workers 4]
//	          [-metrics-addr 127.0.0.1:9090]
//	          [-faults] [-retries 3] [-breaker-threshold 5] [-page-budget 2m]
//	          [-provenance DIR] [-trace-out FILE]
//	          [-flight-out FILE] [-flight-sample N]
//	          [-store DIR] [-resume] [-store-sync N]
//	          [-kill-after-appends N] [-kill-torn]
//	          [-shards N] [-shard-workers N] [-coordinator-addr ADDR]
//	          [-shard-min-workers N] [-fleet-telemetry=false]
//	pornstudy -worker -coordinator ADDR [-worker-listen 127.0.0.1:0]
//	          [-metrics-addr 127.0.0.1:0] [-shard-kill-visits N] ...
//
// The pipeline runs as a dependency graph: independent crawls and
// analyses overlap, bounded by -stage-workers (0 = NumCPU).
// -stage-workers 1 runs one stage at a time; every count produces
// identical results (pinned by TestScheduleEquivalence and the
// determinism make target).
//
// -faults injects the default chaos profile into the generated
// ecosystem (transient 5xx bursts, drops, truncation, resets, redirect
// loops, latency, HTTP 451 geo-blocks). -retries enables bounded
// retries with exponential backoff; -breaker-threshold arms the
// per-host circuit breaker. The report then includes the robustness
// section with per-vantage loss and the failure taxonomy.
//
// -store DIR opens the durable visit store: every completed visit is
// appended to an fsync'd log in DIR, so a crashed or interrupted run
// can be resumed with -resume against the same directory — already
// durable visits are replayed instead of refetched, and the run
// manifest comes out byte-identical to an uninterrupted run (the
// crashsafety make target proves this). Resuming against a store
// written under a different config or seed exits with status 2.
// -store-sync N batches N appends per fsync (default 16).
// -kill-after-appends N is the crash-injection harness: the process
// dies (exit 137) at the Nth store append, -kill-torn additionally
// leaves a torn half-written record for replay to truncate.
//
// -shards N (N > 1) shards every named crawl stage by registrable
// domain and dispatches the shards across a worker fleet; the merged
// run is byte-identical to an unsharded run of the same config (the
// shardci make target and TestShardEquivalence prove this). Without
// -coordinator-addr the fleet is in-process (-shard-workers many, one
// per shard by default). With -coordinator-addr the coordinator opens
// a registration listener and waits for -shard-min-workers worker
// processes: start those with `pornstudy -worker -coordinator ADDR`
// plus the *same* scale/seed/crawl flags — a worker refuses
// assignments from a foreign config fingerprint (exit paths mirror the
// store's fingerprint binding). -shard-kill-visits N makes a worker
// die (exit 137) at its Nth visit — the reassignment harness; the
// coordinator reruns the lost shard on a survivor and the merged
// output is unchanged. The per-shard digests of a sharded run land in
// a shards.json sidecar next to manifest.json.
//
// A SIGINT (Ctrl-C) no longer aborts mid-write: the study context is
// canceled, in-flight stages drain, the flight recorder and provenance
// files flush, and the store checkpoints before the process exits 130.
//
// With -metrics-addr set, an admin listener exposes live run telemetry:
// /metrics (Prometheus text format), /spans (recent pipeline-stage spans
// as JSON), /flight (recent per-visit wide events as NDJSON), /trace
// (Chrome trace-event export) and /debug/pprof/ while the study runs.
//
// On a sharded run those views federate the whole fleet: every shard
// result carries the worker's metric deltas, sampled spans and flight
// events back to the coordinator, whose /metrics merges them under
// worker/shard labels, /fleet reports per-worker health and stage
// progress as JSON, and /trace exports one merged multi-process trace
// under the run's trace ID. Workers run their own admin listener too
// (auto-port by default; pin it with -metrics-addr) and report its
// bound address at registration. -fleet-telemetry=false turns the
// return path off; crawl results and the manifest are byte-identical
// either way — telemetry is a sidecar, never an input.
//
// -provenance DIR writes the run's manifest.json (deterministic: two runs
// of the same seeded config are byte-identical) and runinfo.json
// (wall-clock sidecar) into DIR; compare two such directories with the
// studydiff command. -trace-out dumps the stage spans as a Chrome
// trace-event file loadable in Perfetto; -flight-out streams every kept
// per-visit flight event as NDJSON; -flight-sample N keeps only 1 in N
// successful visits (failures are always kept).
//
// -scale 1.0 reproduces the paper's corpus sizes (6,843 porn sites and
// 9,688 regular sites) and takes several minutes; the default runs a
// proportionally scaled-down study in seconds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"pornweb/internal/core"
	"pornweb/internal/obs"
	"pornweb/internal/report"
	"pornweb/internal/resilience"
	"pornweb/internal/shard"
	"pornweb/internal/store"
	"pornweb/internal/webgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and an exit code, so the exit
// contract (0 ok, 1 error, 2 store fingerprint mismatch, 130 SIGINT)
// is testable without forking.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pornstudy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.05, "corpus scale (1.0 = paper size)")
	seed := fs.Uint64("seed", 2019, "generation seed")
	workers := fs.Int("workers", 16, "crawl parallelism")
	stageWorkers := fs.Int("stage-workers", 0, "concurrent pipeline stages for the DAG scheduler (0 = NumCPU)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-page timeout")
	verbose := fs.Bool("v", false, "progress logging")
	jsonOut := fs.String("json", "", "also write the raw results as JSON to this file")
	csvDir := fs.String("csv", "", "also write per-experiment CSV files into this directory")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /spans and /debug/pprof/ on this address (e.g. 127.0.0.1:9090)")
	faults := fs.Bool("faults", false, "inject the default chaos profile into the generated ecosystem")
	retries := fs.Int("retries", 0, "max attempts per request (0 or 1 = single-shot)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive failures that open a host's circuit breaker (0 = disabled)")
	breakerCooldown := fs.Duration("breaker-cooldown", 500*time.Millisecond, "how long an open breaker rejects before half-opening")
	pageBudget := fs.Duration("page-budget", 0, "total deadline per page visit across all retries (0 = 4x timeout when retries are on)")
	provDir := fs.String("provenance", "", "write manifest.json and runinfo.json into this directory (compare runs with studydiff)")
	traceOut := fs.String("trace-out", "", "write stage spans as a Chrome trace-event file (load in Perfetto or chrome://tracing)")
	flightOut := fs.String("flight-out", "", "stream kept per-visit flight events to this file as NDJSON")
	flightSample := fs.Int("flight-sample", 0, "keep 1 in N successful visit events (failures always kept; <=1 keeps all)")
	storeDir := fs.String("store", "", "persist every completed visit into a durable store in this directory")
	resume := fs.Bool("resume", false, "resume from an existing -store directory, skipping visits already durable")
	storeSync := fs.Int("store-sync", 0, "store appends per fsync batch (0 = default 16; 1 syncs every visit)")
	killAfter := fs.Int("kill-after-appends", 0, "crash injection: die (exit 137) at the Nth store append (0 = off)")
	killTorn := fs.Bool("kill-torn", false, "crash injection: additionally leave a torn half-written record")
	shards := fs.Int("shards", 0, "partition each crawl stage into N shards dispatched across a worker fleet (0/1 = serial)")
	shardWorkers := fs.Int("shard-workers", 0, "in-process shard workers (0 = one per shard; ignored with -coordinator-addr)")
	coordAddr := fs.String("coordinator-addr", "", "with -shards: listen here for worker-process registrations instead of using in-process workers")
	shardMinWorkers := fs.Int("shard-min-workers", 0, "with -coordinator-addr: workers to wait for before dispatching (0 = 1)")
	worker := fs.Bool("worker", false, "run as a shard worker process: serve assignments instead of running the study")
	workerListen := fs.String("worker-listen", "127.0.0.1:0", "worker mode: address to serve assignments on")
	coordinator := fs.String("coordinator", "", "worker mode: coordinator registration address to join")
	shardKillVisits := fs.Int("shard-kill-visits", 0, "worker mode: crash injection — die (exit 137) at the Nth visit (0 = off)")
	fleetTelemetry := fs.Bool("fleet-telemetry", true, "with -shards: workers return metric deltas, spans and flight events for the coordinator's federated /metrics, /fleet and /trace views")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	params := webgen.Params{Seed: *seed, Scale: *scale}
	if *faults {
		params.Faults = webgen.DefaultFaultProfile()
		params.Faults.Geo451 = true
	}
	cfg := core.Config{
		Params:       params,
		Workers:      *workers,
		StageWorkers: *stageWorkers,
		Timeout:      *timeout,
		MetricsAddr:  *metricsAddr,
		Resilience: resilience.Policy{
			MaxAttempts:      *retries,
			Seed:             int64(*seed),
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
		},
		PageBudget:      *pageBudget,
		FlightSample:    *flightSample,
		StoreDir:        *storeDir,
		StoreResume:     *resume,
		StoreSyncEvery:  *storeSync,
		Shards:          *shards,
		ShardWorkers:    *shardWorkers,
		CoordinatorAddr: *coordAddr,
		ShardMinWorkers: *shardMinWorkers,

		FleetTelemetryOff: !*fleetTelemetry,
	}
	if *verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(stderr, "# "+format+"\n", args...)
		}
	}
	if *worker {
		return runWorker(cfg, *coordinator, *workerListen, *shardKillVisits, stderr)
	}
	if *killAfter > 0 {
		if *storeDir == "" {
			fmt.Fprintln(stderr, "pornstudy: -kill-after-appends requires -store")
			return 1
		}
		cfg.StoreKill = &store.KillSwitch{After: *killAfter, Torn: *killTorn, Exit: os.Exit}
	}
	var flightFile *os.File
	if *flightOut != "" {
		f, err := os.Create(*flightOut)
		if err != nil {
			fmt.Fprintln(stderr, "pornstudy:", err)
			return 1
		}
		flightFile = f
		cfg.FlightSink = f
	}
	st, err := core.NewStudy(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "pornstudy:", err)
		if errors.Is(err, store.ErrFingerprintMismatch) {
			return 2
		}
		return 1
	}
	defer st.Close()
	if *metricsAddr != "" {
		fmt.Fprintf(stderr, "observability: http://%s/metrics\n", st.AdminAddr())
	}
	if *coordAddr != "" && st.Coordinator() != nil {
		fmt.Fprintf(stderr, "shard coordinator: workers register at %s\n", st.Coordinator().Addr())
	}

	// Graceful SIGINT: cancel the study context so in-flight stages
	// drain; the deferred st.Close then checkpoints the store and stops
	// the servers, so an interrupted store-backed run resumes cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	res, err := st.Run(ctx)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(stderr, "pornstudy: interrupted; draining and checkpointing")
			flushVolatile(st, stderr, flightFile, *flightOut, *traceOut, *provDir)
			return 130
		}
		fmt.Fprintln(stderr, "pornstudy:", err)
		return 1
	}
	fmt.Fprintf(stdout, "Tales from the Porn — reproduction run (scale %.3g, seed %d, %s)\n",
		*scale, *seed, time.Since(start).Round(time.Millisecond))
	report.All(stdout, res)
	report.Provenance(stdout, st.Provenance)

	if *provDir != "" {
		if err := st.WriteProvenance(*provDir); err != nil {
			fmt.Fprintln(stderr, "pornstudy: provenance:", err)
			return 1
		}
		fmt.Fprintf(stderr, "provenance written to %s\n", *provDir)
	}
	if *traceOut != "" {
		if err := writeTrace(st, *traceOut); err != nil {
			fmt.Fprintln(stderr, "pornstudy: trace:", err)
			return 1
		}
		fmt.Fprintf(stderr, "trace written to %s\n", *traceOut)
	}
	if flightFile != nil {
		seen, kept, sampledOut := st.Flight.Stats()
		flightFile.Close()
		flightFile = nil
		fmt.Fprintf(stderr, "flight events written to %s (%d seen, %d kept, %d sampled out)\n",
			*flightOut, seen, kept, sampledOut)
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(stderr, "pornstudy:", err)
			return 1
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(stderr, "pornstudy: encode:", err)
			return 1
		}
		f.Close()
		fmt.Fprintf(stderr, "raw results written to %s\n", *jsonOut)
	}
	if *csvDir != "" {
		if err := report.WriteCSVDir(*csvDir, res); err != nil {
			fmt.Fprintln(stderr, "pornstudy: csv:", err)
			return 1
		}
		fmt.Fprintf(stderr, "CSV tables written to %s\n", *csvDir)
	}
	return 0
}

// runWorker turns the process into one member of a sharded crawl's
// worker fleet: build the same deterministic study the coordinator
// runs (the config fingerprint binds the two — a worker started with
// different crawl flags answers assignments with 409), serve shard
// assignments on listen, register with the coordinator, and run until
// a /shutdown request (exit 0) or SIGINT (exit 130). The worker never
// opens a store and never shards; the coordinator owns both.
func runWorker(cfg core.Config, coordinator, listen string, killVisits int, stderr io.Writer) int {
	if coordinator == "" {
		fmt.Fprintln(stderr, "pornstudy: -worker requires -coordinator")
		return 1
	}
	cfg.StoreDir = ""
	cfg.StoreResume = false
	cfg.StoreKill = nil
	cfg.Shards = 0
	cfg.ShardWorkers = 0
	cfg.CoordinatorAddr = ""
	// Every worker gets its own admin listener (auto-port unless
	// -metrics-addr pins one); the bound address is reported to the
	// coordinator at registration so the fleet view can link to it.
	if cfg.MetricsAddr == "" {
		cfg.MetricsAddr = "127.0.0.1:0"
	}
	st, err := core.NewStudy(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "pornstudy:", err)
		return 1
	}
	defer st.Close()
	fmt.Fprintf(stderr, "worker observability: http://%s/metrics\n", st.AdminAddr())

	srv := &shard.Server{
		Runner:      st,
		Fingerprint: st.Fingerprint(),
		Seed:        int64(cfg.Params.Seed),
		Registry:    st.Metrics,
		Tracer:      st.Tracer,
		Flight:      st.Flight,
		MetricsAddr: st.AdminAddr(),
	}
	if killVisits > 0 {
		srv.Kill = &shard.KillSwitch{After: killVisits, Exit: os.Exit}
	}
	if err := srv.Start(listen); err != nil {
		fmt.Fprintln(stderr, "pornstudy:", err)
		return 1
	}
	defer srv.Close()
	srv.Label = "worker@" + srv.Addr()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Registration retries generously: coordinator and workers start
	// concurrently, so the first attempts may land before its listener.
	ctrl := resilience.NewController(resilience.Policy{
		MaxAttempts: 10,
		Seed:        int64(cfg.Params.Seed),
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
	})
	if err := shard.Register(ctx, nil, ctrl, coordinator,
		shard.Registration{Name: srv.Label, Addr: srv.Addr(), MetricsAddr: srv.MetricsAddr}); err != nil {
		fmt.Fprintln(stderr, "pornstudy:", err)
		return 1
	}
	fmt.Fprintf(stderr, "worker %s registered with coordinator %s\n", srv.Label, coordinator)
	select {
	case <-srv.Done():
		return 0
	case <-ctx.Done():
		return 130
	}
}

// flushVolatile drains what an interrupted run can still save: the
// flight-event stream, the stage trace, and — when Run got far enough
// to assemble one — the provenance pair. The store checkpoint itself
// happens in the deferred st.Close.
func flushVolatile(st *core.Study, stderr io.Writer, flightFile *os.File, flightOut, traceOut, provDir string) {
	if flightFile != nil {
		seen, kept, sampledOut := st.Flight.Stats()
		flightFile.Close()
		fmt.Fprintf(stderr, "flight events written to %s (%d seen, %d kept, %d sampled out)\n",
			flightOut, seen, kept, sampledOut)
	}
	if traceOut != "" {
		if err := writeTrace(st, traceOut); err != nil {
			fmt.Fprintln(stderr, "pornstudy: trace:", err)
		}
	}
	if provDir != "" && st.Provenance != nil {
		if err := st.WriteProvenance(provDir); err != nil {
			fmt.Fprintln(stderr, "pornstudy: provenance:", err)
		}
	}
}

// writeTrace dumps the tracer's recent spans as a Chrome trace file.
func writeTrace(st *core.Study, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, st.Tracer.Recent()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
