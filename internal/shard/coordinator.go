package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"pornweb/internal/obs"
	"pornweb/internal/provenance"
	"pornweb/internal/resilience"
)

// Coordinator metric names. Constant snake_case with the suffix
// conventions the dashboards key on.
const (
	metricDispatch      = "shard_dispatch_total"
	metricReassigned    = "shard_reassigned_total"
	metricRetired       = "shard_workers_retired_total"
	metricResultsMerged = "shard_results_merged_total"
	metricEntriesMerged = "shard_entries_merged_total"
	metricRegistered    = "shard_workers_registered_total"
)

// Coordinator owns one crawl's worker fleet: a registry of local and
// remote workers (remote ones announce themselves on the /register
// listener) and a round-based dispatcher that ships shard assignments
// to the fleet, reassigns the shards of failed workers to survivors,
// and folds the validated per-shard results together
// order-independently.
type Coordinator struct {
	// MinWorkers is how many workers WaitWorkers blocks for.
	MinWorkers int
	// Client and Ctrl are shared by every RemoteWorker the registration
	// listener mints.
	Client *http.Client
	Ctrl   *resilience.Controller

	// Tracer, TraceID and Flight wire the fleet observability plane.
	// When Tracer is set, Dispatch opens one span per assignment and
	// propagates (TraceID, span ID) inside it, so worker spans stitch
	// under the coordinator's causal tree. Flight, when set, receives
	// the flight events workers return, stamped with worker/shard
	// identity. TelemetryOff stops asking workers for telemetry — the
	// knob the byte-identity invariant is tested against. All optional.
	Tracer       *obs.Tracer
	TraceID      string
	Flight       *obs.FlightRecorder
	TelemetryOff bool

	reg *obs.Registry

	mu sync.Mutex
	// guarded by mu
	workers []Worker
	// guarded by mu
	retired map[string]bool
	// guarded by mu
	closed bool
	// arrived is recreated on each registration; closed to wake waiters.
	// guarded by mu
	arrived chan struct{}
	// guarded by mu
	ln net.Listener
	// guarded by mu
	srv *http.Server

	// health, stages and failures back the /fleet report; see fleet.go.
	// guarded by mu
	health map[string]*workerHealth
	// guarded by mu
	stages map[string]*StageProgress
	// guarded by mu
	failures map[string]int

	metDispatch     *obs.Counter
	metReassigned   *obs.Counter
	metRetired      *obs.Counter
	metResults      *obs.Counter
	metEntries      *obs.Counter
	metRegistered   *obs.Counter
	metFleetLive    *obs.Gauge
	metFleetRetired *obs.Gauge
}

// NewCoordinator builds a coordinator registering its metrics with reg
// (nil is fine; instruments no-op).
func NewCoordinator(reg *obs.Registry) *Coordinator {
	reg.Describe(metricDispatch, "shard assignments dispatched to workers")
	reg.Describe(metricReassigned, "shards requeued after a worker failure")
	reg.Describe(metricRetired, "workers retired from the fleet after a failure")
	reg.Describe(metricResultsMerged, "per-shard results folded into the merge")
	reg.Describe(metricEntriesMerged, "serialized visit entries received from workers")
	reg.Describe(metricRegistered, "workers accepted by the registration listener")
	reg.Describe(metricFleetLive, "workers currently live in the fleet")
	reg.Describe(metricFleetRetired, "workers retired from the fleet")
	reg.Describe(metricFleetVisits, "visit entries merged per worker")
	reg.Describe(metricFleetHeartbeat, "seconds since each worker's last completed result or registration")
	return &Coordinator{
		reg:             reg,
		retired:         map[string]bool{},
		arrived:         make(chan struct{}),
		metDispatch:     reg.Counter(metricDispatch),
		metReassigned:   reg.Counter(metricReassigned),
		metRetired:      reg.Counter(metricRetired),
		metResults:      reg.Counter(metricResultsMerged),
		metEntries:      reg.Counter(metricEntriesMerged),
		metRegistered:   reg.Counter(metricRegistered),
		metFleetLive:    reg.Gauge(metricFleetLive),
		metFleetRetired: reg.Gauge(metricFleetRetired),
	}
}

// AddWorker registers a worker directly — the in-process path tests
// and benchmarks use.
func (c *Coordinator) AddWorker(w Worker) {
	c.mu.Lock()
	c.workers = append(c.workers, w)
	old := c.arrived
	c.arrived = make(chan struct{})
	c.mu.Unlock()
	c.metRegistered.Inc()
	kind, addr, metricsAddr := "local", "", ""
	if rw, ok := w.(*RemoteWorker); ok {
		kind, addr, metricsAddr = "remote", rw.Addr, rw.MetricsAddr
	}
	c.noteWorker(w.Name(), kind, addr, metricsAddr)
	close(old)
}

// Listen opens the registration endpoint on addr (use "127.0.0.1:0"
// for an ephemeral port): worker processes POST {name, addr} to
// /register and join the fleet as RemoteWorkers.
func (c *Coordinator) Listen(addr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.ln != nil {
		return fmt.Errorf("shard: coordinator already listening on %s", c.ln.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("shard: coordinator listen %s: %w", addr, err)
	}
	c.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/register", c.handleRegister)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok\n")
	})
	c.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	srv := c.srv
	go func() { _ = srv.Serve(ln) }() // Serve always errors on Close; nothing to report
	return nil
}

// Addr returns the registration listener's bound address, or "" when
// not listening.
func (c *Coordinator) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// handleRegister admits one worker into the fleet.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var reg Registration
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&reg); err != nil {
		http.Error(w, fmt.Sprintf("bad registration: %v", err), http.StatusBadRequest)
		return
	}
	if reg.Name == "" || reg.Addr == "" {
		http.Error(w, "registration needs name and addr", http.StatusBadRequest)
		return
	}
	c.AddWorker(&RemoteWorker{Label: reg.Name, Addr: reg.Addr, MetricsAddr: reg.MetricsAddr,
		Client: c.Client, Ctrl: c.Ctrl})
	_, _ = io.WriteString(w, "registered\n")
}

// WaitWorkers blocks until at least n workers have joined (MinWorkers
// when n <= 0), or ctx expires.
func (c *Coordinator) WaitWorkers(ctx context.Context, n int) error {
	if n <= 0 {
		n = c.MinWorkers
	}
	if n <= 0 {
		n = 1
	}
	for {
		c.mu.Lock()
		have := len(c.workers)
		arrived := c.arrived
		c.mu.Unlock()
		if have >= n {
			return nil
		}
		select {
		case <-arrived:
		case <-ctx.Done():
			return fmt.Errorf("shard: waiting for %d workers, have %d: %w", n, have, ctx.Err())
		}
	}
}

// live returns the non-retired workers, in registration order.
func (c *Coordinator) live() []Worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Worker, 0, len(c.workers))
	for _, w := range c.workers {
		if !c.retired[w.Name()] {
			out = append(out, w)
		}
	}
	return out
}

// retire removes a worker from the fleet.
func (c *Coordinator) retire(w Worker) {
	c.mu.Lock()
	already := c.retired[w.Name()]
	c.retired[w.Name()] = true
	c.mu.Unlock()
	if !already {
		c.metRetired.Inc()
	}
	c.updateFleetGauges()
}

// Workers reports fleet size as (live, retired).
func (c *Coordinator) Workers() (live, retired int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers) - len(c.retired), len(c.retired)
}

// Merged is the outcome of a completed dispatch: every entry of every
// shard keyed by site, plus the per-shard digests and the combined
// multiset digest over all entries for the shard manifest sidecar.
type Merged struct {
	// Entries maps site to its serialized visit entry.
	Entries map[string][]byte
	// Shards holds one info row per shard, ordered by shard index.
	Shards []provenance.ShardInfo
	// Entries folded, and the combined order-independent digest.
	Count  int
	Digest string
}

// shardOutcome is one worker's answer to one assignment in a wave: the
// validated result and its entry multiset, or why it was refused.
type shardOutcome struct {
	a   Assignment
	w   Worker
	res *Result
	sum provenance.MultisetHash
	err error
}

// Dispatch runs one stage's assignments to completion in waves: each
// wave deals at most one shard to each live worker and runs them in
// parallel (the fleet size, not the shard count, is the parallelism
// knob). Each worker goroutine validates its own result against its
// assignment; a worker whose shard errors or fails validation is
// retired and the shard requeued for the next wave. Waves repeat until
// every shard has a validated result or the fleet is exhausted
// (ErrNoWorkers), and the results are then folded once. Because each
// shard's result is a deterministic function of the assignment, a
// reassigned shard reproduces exactly the entries its first worker
// would have returned, so the merged output is independent of which
// workers survived and of the order results arrived in.
func (c *Coordinator) Dispatch(ctx context.Context, assignments []Assignment) (*Merged, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.mu.Unlock()

	done := make(map[int]shardOutcome, len(assignments))
	pending := slices.Clone(assignments)
	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("shard: dispatch: %w", err)
		}
		fleet := c.live()
		if len(fleet) == 0 {
			return nil, fmt.Errorf("shard: %d shards unassigned: %w", len(pending), ErrNoWorkers)
		}

		wave := pending
		if len(wave) > len(fleet) {
			wave = pending[:len(fleet)]
		}
		outcomes := make([]shardOutcome, len(wave))
		var wg sync.WaitGroup
		for i, a := range wave {
			w := fleet[i]
			c.metDispatch.Inc()
			// Propagate trace context: the assignment carries the run
			// trace ID and this dispatch span's ID, so the worker's spans
			// parent under it in the merged trace. Telemetry asks the
			// worker to return its observability delta with the result.
			actx, span := c.Tracer.Start(ctx, "shard/dispatch")
			span.SetAttr("stage", a.Stage)
			span.SetAttr("shard", fmt.Sprintf("%d/%d", a.Shard, a.Shards))
			span.SetAttr("worker", w.Name())
			a.TraceID = c.TraceID
			a.ParentSpan = span.ID()
			a.Telemetry = !c.TelemetryOff
			wg.Add(1)
			go func(i int, a Assignment, w Worker, actx context.Context, span *obs.Span) {
				defer wg.Done()
				o := shardOutcome{a: a, w: w}
				o.res, o.err = w.Run(actx, a)
				if o.err == nil {
					o.sum, o.err = o.res.validate(a)
				}
				if o.err != nil {
					span.SetAttr("error", o.err.Error())
				}
				span.End()
				outcomes[i] = o
			}(i, a, w, actx, span)
		}
		wg.Wait()

		requeue := slices.Clone(pending[len(wave):])
		for _, o := range outcomes {
			if o.err != nil {
				// The worker failed the shard — or answered with a result
				// that fails validation, which is just as disqualifying.
				// Retire it and give the shard to a survivor next round.
				c.noteFailure(o.w, o.err)
				c.retire(o.w)
				c.metReassigned.Inc()
				requeue = append(requeue, o.a)
				continue
			}
			if _, dup := done[o.a.Shard]; dup {
				return nil, fmt.Errorf("shard: %s shard %d already merged: %w", o.a.Stage, o.a.Shard, ErrDuplicateShard)
			}
			done[o.a.Shard] = o
			c.metResults.Inc()
			c.metEntries.Add(uint64(len(o.res.Entries)))
			c.noteResult(o.w, o.a, o.res)
		}
		pending = requeue
	}
	merged := mergeShards(done)
	if len(assignments) > 0 {
		c.noteStage(assignments[0].Stage, len(assignments), len(merged.Shards), merged.Count)
	}
	return merged, nil
}

// mergeShards folds the validated results of one dispatch, in shard
// order, into the merged view. Shard host sets are disjoint and the
// digest is a commutative multiset sum, so the outcome does not depend
// on which wave delivered which shard.
func mergeShards(done map[int]shardOutcome) *Merged {
	shards := make([]int, 0, len(done))
	for i := range done {
		shards = append(shards, i)
	}
	slices.Sort(shards)
	out := &Merged{Entries: map[string][]byte{}}
	var digest provenance.MultisetHash
	for _, i := range shards {
		o := done[i]
		for _, e := range o.res.Entries {
			out.Entries[e.Site] = e.Raw
		}
		digest.Merge(&o.sum)
		out.Shards = append(out.Shards, provenance.ShardInfo{
			Shard:   i,
			Hosts:   len(o.a.Hosts),
			Entries: len(o.res.Entries),
			Digest:  o.res.Digest,
		})
	}
	out.Count, out.Digest = digest.Count(), digest.Sum()
	return out
}

// Close retires the registration listener and asks every live remote
// worker process to exit — best-effort with a bounded deadline, so
// shardci and interrupted runs leave no stray processes behind.
// Idempotent.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	alreadyClosed := c.closed
	c.closed = true
	srv, ln := c.srv, c.ln
	c.srv = nil
	c.ln = nil
	var remotes []*RemoteWorker
	for _, w := range c.workers {
		if rw, ok := w.(*RemoteWorker); ok && !c.retired[w.Name()] {
			remotes = append(remotes, rw)
		}
	}
	c.mu.Unlock()
	if !alreadyClosed {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, rw := range remotes {
			_ = rw.Shutdown(ctx) // a worker that already died satisfies the intent
		}
	}
	if srv == nil {
		return nil
	}
	err := srv.Close()
	// srv.Close only closes the listeners Serve has begun tracking, and
	// Serve may not have started yet: close ln too, so the port is free
	// when Close returns.
	if lerr := ln.Close(); err == nil && !errors.Is(lerr, net.ErrClosed) {
		err = lerr
	}
	if err != nil {
		return fmt.Errorf("shard: coordinator close: %w", err)
	}
	return nil
}
