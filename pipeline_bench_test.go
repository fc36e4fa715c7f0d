// Pipeline-level benchmarks: the whole study end to end, one stage at a
// time ("Serial", StageWorkers 1) vs NumCPU stage workers ("Scheduled").
// `make bench-json` runs exactly these two and folds the timings into
// BENCH_pipeline.json (ns/op per schedule plus the speedup ratio). The
// parallel schedule's advantage scales with cores — on a single-CPU
// machine the two are expected to tie, since every stage is CPU-bound
// in-process work.
package pornweb_test

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"testing"
	"time"

	"pornweb/internal/core"
	"pornweb/internal/resilience"
	"pornweb/internal/shard"
	"pornweb/internal/webgen"
)

// pipelineBenchScale mirrors the EXPERIMENTS.md reference config at a
// size where one full run takes a few seconds.
const pipelineBenchScale = 0.01

func benchStudy(b *testing.B, stageWorkers int) {
	b.Helper()
	st, err := core.NewStudy(core.Config{
		Params:       webgen.Params{Seed: 2019, Scale: pipelineBenchScale},
		Workers:      8,
		StageWorkers: stageWorkers,
		Timeout:      20 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudyRunSerial(b *testing.B)    { benchStudy(b, 1) }
func BenchmarkStudyRunScheduled(b *testing.B) { benchStudy(b, 0) }

// benchShardedStudy is the pipeline with every crawl stage partitioned
// into 8 shards dispatched across an in-process fleet of the given
// size. The fleet size — not the shard count — is the parallelism knob
// (each wave deals one shard per live worker, and a worker visits its
// shard sequentially), so the workers-1/2/4 series in BENCH_shard.json
// shows how crawl wall-clock scales with fleet size while the merged
// results stay byte-identical to the unsharded run.
func benchShardedStudy(b *testing.B, workers int) {
	b.Helper()
	st, err := core.NewStudy(core.Config{
		Params:       webgen.Params{Seed: 2019, Scale: pipelineBenchScale},
		Workers:      8,
		Timeout:      20 * time.Second,
		Shards:       8,
		ShardWorkers: workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudyRunSharded1(b *testing.B) { benchShardedStudy(b, 1) }
func BenchmarkStudyRunSharded2(b *testing.B) { benchShardedStudy(b, 2) }
func BenchmarkStudyRunSharded4(b *testing.B) { benchShardedStudy(b, 4) }

// benchFleetStudy is the pipeline sharded across a loopback fleet of
// three worker processes-in-miniature (real shard.Servers behind real
// HTTP, sharing this study as Runner and observability plane), with
// the fleet telemetry return path on or off. The on/off pair prices
// what every shard result pays to carry metric deltas, sampled spans
// and flight events back to the coordinator (benchjson's
// fleet_telemetry_on_over_off ratio, BENCH_fleet.json); the crawl
// results are byte-identical either way, so the ratio is pure
// observability overhead.
func benchFleetStudy(b *testing.B, telemetryOff bool) {
	b.Helper()
	st, err := core.NewStudy(core.Config{
		Params:            webgen.Params{Seed: 2019, Scale: pipelineBenchScale},
		Workers:           8,
		Timeout:           20 * time.Second,
		Shards:            8,
		CoordinatorAddr:   "127.0.0.1:0",
		ShardMinWorkers:   3,
		FleetTelemetryOff: telemetryOff,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ctrl := resilience.NewController(resilience.Policy{
		MaxAttempts: 5, Seed: 2019,
		BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond,
	})
	for i := 0; i < 3; i++ {
		// Each worker rebuilds the same deterministic study from (seed,
		// config) with its own registry, tracer and flight recorder —
		// exactly what a `pornstudy -worker` process does — so the deltas
		// it ships are real worker-local telemetry.
		wst, err := core.NewStudy(core.Config{
			Params:  webgen.Params{Seed: 2019, Scale: pipelineBenchScale},
			Workers: 8,
			Timeout: 20 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer wst.Close()
		srv := &shard.Server{
			Label:       fmt.Sprintf("bench%d", i),
			Runner:      wst,
			Fingerprint: wst.Fingerprint(),
			Seed:        2019,
			Registry:    wst.Metrics,
			Tracer:      wst.Tracer,
			Flight:      wst.Flight,
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		if err := shard.Register(context.Background(), nil, ctrl,
			st.Coordinator().Addr(), shard.Registration{Name: srv.Label, Addr: srv.Addr()}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudyRunFleetTelemetryOn(b *testing.B)  { benchFleetStudy(b, false) }
func BenchmarkStudyRunFleetTelemetryOff(b *testing.B) { benchFleetStudy(b, true) }

// BenchmarkStudyRunStoreBacked is the scheduled pipeline with the
// durable visit store attached: every completed visit is serialized,
// CRC-framed, appended and batch-fsync'd as the crawl runs. Compared
// against BenchmarkStudyRunScheduled (benchjson's
// store_overhead_storebacked_over_scheduled ratio, BENCH_store.json)
// it prices crash-resumability per study run. Each iteration gets a
// fresh store directory — reusing one would let the second run resume
// from the first and measure replay instead of persistence.
func BenchmarkStudyRunStoreBacked(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := core.NewStudy(core.Config{
			Params:   webgen.Params{Seed: 2019, Scale: pipelineBenchScale},
			Workers:  8,
			Timeout:  20 * time.Second,
			StoreDir: b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := st.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
}

// BenchmarkStudyRunProfiled is the scheduled pipeline with a CPU
// profile attached, exactly as cmd/studyprof runs it. Compared against
// BenchmarkStudyRunScheduled (benchjson's
// profile_overhead_profiled_over_scheduled ratio, BENCH_prof.json) it
// prices the continuous-profiling harness: how much the 100 Hz sampler
// plus label bookkeeping costs relative to an uninstrumented run.
func BenchmarkStudyRunProfiled(b *testing.B) {
	st, err := core.NewStudy(core.Config{
		Params:  webgen.Params{Seed: 2019, Scale: pipelineBenchScale},
		Workers: 8,
		Timeout: 20 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pprof.StartCPUProfile(io.Discard); err != nil {
			b.Fatal(err)
		}
		_, err := st.Run(context.Background())
		pprof.StopCPUProfile()
		if err != nil {
			b.Fatal(err)
		}
	}
}
