package shard

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strconv"
	"time"

	"pornweb/internal/obs"
)

// Fleet observability metric names: the coordinator-owned fleet_* family
// (studylint reserves the prefix to this package).
const (
	metricFleetLive      = "fleet_workers_live"
	metricFleetRetired   = "fleet_workers_retired"
	metricFleetVisits    = "fleet_worker_visits_total"
	metricFleetHeartbeat = "fleet_worker_heartbeat_age_seconds"
)

// maxWorkerSpans bounds how many of a worker's spans the coordinator
// retains for the merged trace (newest win), mirroring the tracer ring's
// own bounded-memory stance.
const maxWorkerSpans = 4096

// Telemetry is a worker's observability sidecar for one shard result:
// the registry delta since the worker's previous shard, the spans the
// shard produced, and its kept flight events. It rides next to the data
// entries but is excluded from the result digest — telemetry loss
// degrades the fleet view, never the merge.
type Telemetry struct {
	// Worker echoes the producing worker's label; MetricsAddr its admin
	// listener, when it has one, so the fleet view can link to it.
	Worker      string `json:"worker,omitempty"`
	MetricsAddr string `json:"metrics_addr,omitempty"`
	// TraceID echoes the propagated run trace ID.
	TraceID string `json:"trace_id,omitempty"`
	// Metrics is the worker registry's delta since its previous shard.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Spans are the spans the worker recorded while running the shard.
	Spans []obs.SpanRecord `json:"spans,omitempty"`
	// Flight are the flight events the worker kept during the shard.
	Flight []obs.VisitEvent `json:"flight,omitempty"`
}

// WorkerHealth is one worker's row in the /fleet report.
type WorkerHealth struct {
	Name string `json:"name"`
	// Kind is "local" (in-process) or "remote" (worker process).
	Kind        string `json:"kind"`
	Addr        string `json:"addr,omitempty"`
	MetricsAddr string `json:"metrics_addr,omitempty"`
	Live        bool   `json:"live"`
	// ShardsDone and Visits count completed assignments and the entries
	// they returned; Failures counts assignments that errored.
	ShardsDone int    `json:"shards_done"`
	Visits     int    `json:"visits"`
	Failures   int    `json:"failures"`
	LastError  string `json:"last_error,omitempty"`
	// Telemetry summarizes the worker's telemetry return path: "ok"
	// (every result carried a snapshot), "partial" (some results came
	// back without one), "inline" (local worker sharing the
	// coordinator's registry — nothing to federate), or "none" (no
	// result seen yet).
	Telemetry string `json:"telemetry"`
	// Spans is how many of the worker's spans the coordinator holds for
	// the merged trace.
	Spans int `json:"spans"`
	// LastHeartbeatAgeSeconds is the age of the worker's last completed
	// result (or registration, whichever is later); -1 before any.
	LastHeartbeatAgeSeconds float64 `json:"last_heartbeat_age_seconds"`
}

// StageProgress is one dispatched stage's row in the /fleet report.
type StageProgress struct {
	Stage   string `json:"stage"`
	Shards  int    `json:"shards"`
	Merged  int    `json:"merged"`
	Entries int    `json:"entries"`
}

// FleetReport is the /fleet endpoint's document: fleet size, per-worker
// health, per-stage shard progress, and the failure-class census.
type FleetReport struct {
	TraceID  string          `json:"trace_id,omitempty"`
	Live     int             `json:"live"`
	Retired  int             `json:"retired"`
	Workers  []WorkerHealth  `json:"workers"`
	Stages   []StageProgress `json:"stages,omitempty"`
	Failures map[string]int  `json:"failure_classes,omitempty"`
}

// workerHealth is the coordinator's mutable per-worker state behind a
// WorkerHealth row.
type workerHealth struct {
	kind        string
	addr        string
	metricsAddr string
	visits      int
	shards      int
	failures    int
	lastErr     string
	lastBeat    time.Time
	withTel     int // results that carried a telemetry snapshot
	withoutTel  int // results that should have but did not
	spans       []obs.SpanRecord
}

// failureClass buckets a dispatch error into the fleet failure census.
func failureClass(err error) string {
	switch {
	case errors.Is(err, ErrWorkerKilled):
		return "worker_killed"
	case errors.Is(err, ErrFingerprintMismatch):
		return "fingerprint_mismatch"
	case errors.Is(err, ErrDigestMismatch):
		return "digest_mismatch"
	case errors.Is(err, ErrBadFrame):
		return "bad_frame"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return "transport"
	}
}

// noteWorker creates (or refreshes) a worker's health row at
// registration time and updates the fleet-size gauges.
func (c *Coordinator) noteWorker(name, kind, addr, metricsAddr string) {
	c.mu.Lock()
	if c.health == nil {
		c.health = map[string]*workerHealth{}
	}
	h := c.health[name]
	if h == nil {
		h = &workerHealth{}
		c.health[name] = h
	}
	h.kind = kind
	h.addr = addr
	h.metricsAddr = metricsAddr
	h.lastBeat = time.Now()
	c.mu.Unlock()
	c.updateFleetGauges()
}

// updateFleetGauges refreshes the fleet-size gauges from the registry of
// workers.
func (c *Coordinator) updateFleetGauges() {
	live, retired := c.Workers()
	c.metFleetLive.Set(float64(live))
	c.metFleetRetired.Set(float64(retired))
}

// noteResult records one successfully merged result against its worker:
// health counters, the per-worker visit counter, and — when the result
// carries telemetry — the federated merge of the worker's metric delta,
// spans, and flight events.
func (c *Coordinator) noteResult(w Worker, a Assignment, res *Result) {
	name := w.Name()
	_, isLocal := w.(*LocalWorker)
	c.mu.Lock()
	if c.health == nil {
		c.health = map[string]*workerHealth{}
	}
	h := c.health[name]
	if h == nil {
		h = &workerHealth{kind: "remote"}
		if isLocal {
			h.kind = "local"
		}
		c.health[name] = h
	}
	h.shards++
	h.visits += len(res.Entries)
	h.lastBeat = time.Now()
	tel := res.Telemetry
	wantTel := a.Telemetry && !isLocal
	if tel != nil {
		h.withTel++
		if tel.MetricsAddr != "" {
			h.metricsAddr = tel.MetricsAddr
		}
		if len(tel.Spans) > 0 {
			h.spans = append(h.spans, tel.Spans...)
			if len(h.spans) > maxWorkerSpans {
				h.spans = append([]obs.SpanRecord(nil), h.spans[len(h.spans)-maxWorkerSpans:]...)
			}
		}
	} else if wantTel {
		h.withoutTel++
	}
	c.mu.Unlock()

	c.reg.Counter(metricFleetVisits, "worker", name).Add(uint64(len(res.Entries)))
	if tel == nil {
		return
	}
	// Federate: the worker's metric delta lands in the coordinator
	// registry under worker/shard labels. Deltas add commutatively, so
	// results may arrive (and merge) in any order — the observability
	// mirror of the data merge's order-independence.
	c.reg.MergeSnapshot(tel.Metrics, "shard", strconv.Itoa(res.Shard), "worker", name)
	for _, ev := range tel.Flight {
		ev.Worker = name
		ev.Shard = res.Shard
		c.Flight.RecordVisit(ev)
	}
}

// noteFailure records one failed assignment against its worker and the
// fleet failure census.
func (c *Coordinator) noteFailure(w Worker, err error) {
	class := failureClass(err)
	c.mu.Lock()
	if c.health == nil {
		c.health = map[string]*workerHealth{}
	}
	h := c.health[w.Name()]
	if h == nil {
		h = &workerHealth{kind: "remote"}
		if _, ok := w.(*LocalWorker); ok {
			h.kind = "local"
		}
		c.health[w.Name()] = h
	}
	h.failures++
	h.lastErr = err.Error()
	if c.failures == nil {
		c.failures = map[string]int{}
	}
	c.failures[class]++
	c.mu.Unlock()
}

// noteStage records one dispatched stage's progress for /fleet.
func (c *Coordinator) noteStage(stage string, shards, merged, entries int) {
	c.mu.Lock()
	if c.stages == nil {
		c.stages = map[string]*StageProgress{}
	}
	s := c.stages[stage]
	if s == nil {
		s = &StageProgress{Stage: stage}
		c.stages[stage] = s
	}
	s.Shards = shards
	s.Merged = merged
	s.Entries = entries
	c.mu.Unlock()
}

// FleetReport assembles the current fleet view. Worker and stage rows
// are sorted by name, so the report is deterministic given the same
// state.
func (c *Coordinator) FleetReport() *FleetReport {
	now := time.Now()
	c.mu.Lock()
	r := &FleetReport{TraceID: c.TraceID}
	names := make([]string, 0, len(c.health))
	for name := range c.health {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := c.health[name]
		row := WorkerHealth{
			Name:                    name,
			Kind:                    h.kind,
			Addr:                    h.addr,
			MetricsAddr:             h.metricsAddr,
			Live:                    !c.retired[name],
			ShardsDone:              h.shards,
			Visits:                  h.visits,
			Failures:                h.failures,
			LastError:               h.lastErr,
			Spans:                   len(h.spans),
			Telemetry:               telemetryStatus(h),
			LastHeartbeatAgeSeconds: -1,
		}
		if !h.lastBeat.IsZero() {
			row.LastHeartbeatAgeSeconds = now.Sub(h.lastBeat).Seconds()
		}
		r.Workers = append(r.Workers, row)
	}
	stageNames := make([]string, 0, len(c.stages))
	for name := range c.stages {
		stageNames = append(stageNames, name)
	}
	sort.Strings(stageNames)
	for _, name := range stageNames {
		r.Stages = append(r.Stages, *c.stages[name])
	}
	if len(c.failures) > 0 {
		r.Failures = make(map[string]int, len(c.failures))
		for class, n := range c.failures {
			r.Failures[class] = n
		}
	}
	c.mu.Unlock()
	r.Live, r.Retired = c.Workers()
	return r
}

// telemetryStatus summarizes a worker's telemetry return path; see
// WorkerHealth.Telemetry.
func telemetryStatus(h *workerHealth) string {
	switch {
	case h.kind == "local":
		return "inline"
	case h.withTel > 0 && h.withoutTel == 0:
		return "ok"
	case h.withTel == 0 && h.withoutTel == 0:
		return "none"
	default:
		return "partial"
	}
}

// refreshFleetMetrics re-derives the scrape-time fleet gauges: fleet
// size and per-worker heartbeat age. Called by the metrics and fleet
// handlers so a scrape always sees current values.
func (c *Coordinator) refreshFleetMetrics() {
	c.updateFleetGauges()
	now := time.Now()
	c.mu.Lock()
	type beat struct {
		name string
		age  float64
	}
	beats := make([]beat, 0, len(c.health))
	for name, h := range c.health {
		if !h.lastBeat.IsZero() {
			beats = append(beats, beat{name, now.Sub(h.lastBeat).Seconds()})
		}
	}
	c.mu.Unlock()
	for _, b := range beats {
		c.reg.Gauge(metricFleetHeartbeat, "worker", b.name).Set(b.age)
	}
}

// FleetHandler serves the /fleet report as JSON.
func (c *Coordinator) FleetHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.refreshFleetMetrics()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(c.FleetReport())
	}
}

// MetricsHandler serves the coordinator registry — its own instruments
// plus everything federated from worker telemetry — as Prometheus text
// exposition, refreshing the scrape-time fleet gauges first.
func (c *Coordinator) MetricsHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c.refreshFleetMetrics()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.reg.WriteExposition(w)
	}
}

// TraceProcesses assembles the merged fleet trace's process rows: the
// coordinator's own spans as process 1, each worker's accumulated spans
// as its own process, ordered by worker name so pids are stable.
func (c *Coordinator) TraceProcesses(coordinatorSpans []obs.SpanRecord) []obs.TraceProcess {
	procs := []obs.TraceProcess{{Name: "coordinator", PID: 1, Spans: coordinatorSpans}}
	c.mu.Lock()
	names := make([]string, 0, len(c.health))
	for name, h := range c.health {
		if len(h.spans) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for i, name := range names {
		procs = append(procs, obs.TraceProcess{
			Name:  name,
			PID:   i + 2,
			Spans: append([]obs.SpanRecord(nil), c.health[name].spans...),
		})
	}
	c.mu.Unlock()
	return procs
}

// TraceHandler serves the merged fleet trace — coordinator plus worker
// process rows — as a Chrome trace-event document.
func (c *Coordinator) TraceHandler(tr *obs.Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="fleet-trace.json"`)
		_ = obs.WriteChromeTraceProcesses(w, c.TraceProcesses(tr.Recent()))
	}
}
