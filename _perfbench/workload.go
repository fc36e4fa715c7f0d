package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"pornweb/internal/core"
	"pornweb/internal/resilience"
	"pornweb/internal/shard"
	"pornweb/internal/webgen"
)

// workloads names the runs the benchmark knows, in the order the doc
// describes them.
var workloads = []string{"study", "resume", "sharded"}

// runTimeout bounds one study run; the benchmark as a whole must end
// well inside three minutes.
const runTimeout = 150 * time.Second

// benchConfig is what every child process of one benchmark invocation
// shares: the workload, the seed, and the work directory holding the
// reference store and manifest.
type benchConfig struct {
	Workload string
	Seed     uint64
	Work     string
	// SpanBuffer is every study's tracer ring capacity; 0 keeps the
	// study's default. The traced run raises it so that no span is
	// evicted.
	SpanBuffer int
}

func (bc benchConfig) refStore() string    { return filepath.Join(bc.Work, "ref-store") }
func (bc benchConfig) refManifest() string { return filepath.Join(bc.Work, "ref-manifest.json") }

// studyConfig is the closed-loop load model every workload shares: one
// pipeline stage at a time, nproc page visits in flight, faults and
// retries off.
func (bc benchConfig) studyConfig() core.Config {
	return core.Config{
		Params:       webgen.Params{Seed: bc.Seed, Scale: scale},
		Workers:      runtime.NumCPU(),
		StageWorkers: 1,
		Timeout:      30 * time.Second,
		SpanBuffer:   bc.SpanBuffer,
	}
}

// instance is one set-up study: the study Run is called on, plus for the
// sharded workload the loopback worker fleet it dispatches to.
type instance struct {
	st      *core.Study
	workers []*core.Study
	servers []*shard.Server
	// scratch is a store directory the instance owns and removes.
	scratch string
}

// setUp builds the study the workload runs: everything up to the point
// where Run can start. mode "prepare" writes the reference store.
func setUp(ctx context.Context, bc benchConfig, mode string) (*instance, error) {
	cfg := bc.studyConfig()
	in := &instance{}
	switch mode {
	case "study":
	case "prepare":
		cfg.StoreDir = bc.refStore()
	case "resume":
		cfg.StoreDir = bc.refStore()
		cfg.StoreResume = true
	case "sharded":
		dir, err := os.MkdirTemp(bc.Work, "sharded-store-")
		if err != nil {
			return nil, err
		}
		in.scratch = dir
		n := runtime.NumCPU()
		cfg.StoreDir = dir
		cfg.Shards = 2 * n
		cfg.CoordinatorAddr = "127.0.0.1:0"
		cfg.ShardMinWorkers = n
	default:
		return nil, fmt.Errorf("unknown workload %q", mode)
	}
	st, err := core.NewStudy(cfg)
	if err != nil {
		in.tearDown()
		return nil, err
	}
	in.st = st
	if mode == "sharded" {
		if err := in.startFleet(ctx, bc); err != nil {
			in.tearDown()
			return nil, err
		}
	}
	return in, nil
}

// startFleet starts nproc shard workers in this process, each with its
// own study and loopback shard.Server, and registers them with the
// coordinator the way `pornstudy -worker` processes do.
func (in *instance) startFleet(ctx context.Context, bc benchConfig) error {
	ctrl := resilience.NewController(resilience.Policy{
		MaxAttempts: 10,
		Seed:        int64(bc.Seed),
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
	})
	for i := 0; i < runtime.NumCPU(); i++ {
		ws, err := core.NewStudy(bc.studyConfig())
		if err != nil {
			return err
		}
		in.workers = append(in.workers, ws)
		srv := &shard.Server{
			Runner:      ws,
			Fingerprint: ws.Fingerprint(),
			Seed:        int64(bc.Seed),
			Registry:    ws.Metrics,
			Tracer:      ws.Tracer,
			Flight:      ws.Flight,
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return err
		}
		in.servers = append(in.servers, srv)
		srv.Label = "bench-worker@" + srv.Addr()
		if err := shard.Register(ctx, nil, ctrl, in.st.Coordinator().Addr(),
			shard.Registration{Name: srv.Label, Addr: srv.Addr()}); err != nil {
			return err
		}
	}
	return nil
}

// tearDown closes the study, then the fleet's servers and studies
// concurrently, as separate worker processes would exit. It removes the
// instance's own store directory last, outside any timing.
func (in *instance) tearDown() {
	if in.st != nil {
		in.st.Close()
	}
	var wg sync.WaitGroup
	for i := range in.workers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i < len(in.servers) {
				_ = in.servers[i].Close() // a listener that fails to close dies with the process
			}
			in.workers[i].Close()
		}(i)
	}
	wg.Wait()
}

// removeScratch deletes the instance's own store directory.
func (in *instance) removeScratch() {
	if in.scratch != "" {
		_ = os.RemoveAll(in.scratch) // leftovers sit in the work directory the parent removes
	}
}

// iterResult is what one untraced iteration reports to the parent.
type iterResult struct {
	SetupS    float64 `json:"setup_s"`
	RunS      float64 `json:"run_s"`
	TeardownS float64 `json:"teardown_s"`
	CPUS      float64 `json:"cpu_s"`
	AllocMB   float64 `json:"alloc_mb"`
	AllocsM   float64 `json:"allocs_m"`
	GCCycles  uint32  `json:"gc_cycles"`
	Attempted int     `json:"attempted_visits"`
	Failed    int     `json:"failed_visits"`
	// ManifestErr is empty when the run's manifest passed the check.
	ManifestErr string `json:"manifest_err,omitempty"`
	// MaxRSSKB is filled in by the parent from the child's rusage.
	MaxRSSKB int64 `json:"max_rss_kb,omitempty"`
}

// visitFailRatio is failed over attempted visits, or 1 when the manifest
// check failed.
func (r iterResult) visitFailRatio() float64 {
	if r.ManifestErr != "" || r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// runMeasured calls Run on a set-up instance and measures it: wall and
// CPU time, allocation, GC cycles and the visit counts of the
// robustness table. It returns the manifest bytes exactly as
// WriteProvenance would write them.
func runMeasured(ctx context.Context, in *instance, r *iterResult) (*core.Results, []byte, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	res, err := in.st.Run(ctx)
	r.RunS = time.Since(t0).Seconds()
	r.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, nil, fmt.Errorf("run: %w", err)
	}
	r.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	r.AllocsM = float64(m1.Mallocs-m0.Mallocs) / 1e6
	r.GCCycles = m1.NumGC - m0.NumGC
	for _, row := range res.Robustness.Rows {
		r.Attempted += row.Attempted
		r.Failed += row.Attempted - row.Crawled
	}
	raw, err := json.MarshalIndent(in.st.Provenance, "", "  ")
	if err != nil {
		return nil, nil, fmt.Errorf("marshal manifest: %w", err)
	}
	return res, append(raw, '\n'), nil
}

// checkManifest compares a run's manifest with the reference: resumed
// and sharded runs byte for byte, in-memory runs except for the store
// section they lack.
func checkManifest(bc benchConfig, got []byte) error {
	ref, err := os.ReadFile(bc.refManifest())
	if err != nil {
		return fmt.Errorf("read reference manifest: %w", err)
	}
	return compareManifests(ref, got, bc.Workload == "study")
}

// prepare writes the reference: one serial store-backed run whose store
// the resume workload replays and whose manifest every run is checked
// against.
func prepare(bc benchConfig) error {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	in, err := setUp(ctx, bc, "prepare")
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	defer in.tearDown()
	var r iterResult
	_, manifest, err := runMeasured(ctx, in, &r)
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	return os.WriteFile(bc.refManifest(), manifest, 0o644)
}

// iterate runs one untraced iteration of the workload: one set-up, Run
// and teardown, alone in its process.
func iterate(bc benchConfig) (*iterResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	r := &iterResult{}
	t0 := time.Now()
	in, err := setUp(ctx, bc, bc.Workload)
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	r.SetupS = time.Since(t0).Seconds()
	defer in.removeScratch()
	_, manifest, err := runMeasured(ctx, in, r)
	if err != nil {
		in.tearDown()
		return nil, err
	}
	if err := checkManifest(bc, manifest); err != nil {
		r.ManifestErr = err.Error()
	}
	t1 := time.Now()
	in.tearDown()
	r.TeardownS = time.Since(t1).Seconds()
	return r, nil
}
