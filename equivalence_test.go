// Manifest-equivalence harness: every execution mode of the study must
// change wall-clock only, never results. Each base config runs once at
// one stage worker — one stage at a time, the reference schedule — and
// every row reruns that base in another mode: more stage workers,
// sharded across a fleet, telemetry off, profiled or store-backed. A
// row must reproduce the reference's Results struct, its rendered
// report and its manifest bytes exactly. Run under -race this also
// shakes out data races between concurrently scheduled stages. A new
// mode costs one row. Killed-and-resumed runs are pinned by
// internal/core's TestResumeEquivalence.
package pornweb_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"pornweb/internal/core"
	"pornweb/internal/obs"
	"pornweb/internal/provenance"
	"pornweb/internal/report"
	"pornweb/internal/webgen"
)

// equivConfig is the collision-manifesting base: large enough that
// registrable-domain collisions between long-tail asset hosts occur —
// scale 0.01 missed the cert-attribution tie-break bug this harness
// exists to catch. Crawl Workers is deliberately concurrent: per-visit
// cookie jars and order-independent analyses make results insensitive
// to intra-crawl visit order.
func equivConfig() core.Config {
	return core.Config{
		Params:  webgen.Params{Seed: 2019, Scale: 0.02},
		Workers: 8,
		Timeout: 20 * time.Second,
	}
}

// smallConfig is the cheap base, internal/core's golden config: at one
// stage worker it reproduces internal/core/testdata/manifest.golden.json.
// The fleet tests derive from it too, so they share its reference. Its
// 5 s page timeout is part of the config fingerprint, so remote fleet
// workers must carry it too; loopback pages load in milliseconds, and a
// visit that did time out would change its record and fail the byte
// comparison against the reference rather than pass unnoticed.
func smallConfig() core.Config {
	return core.Config{
		Params:    webgen.Params{Seed: 11, Scale: 0.004},
		Countries: []string{"ES", "US", "RU"},
		Workers:   4,
		Timeout:   5 * time.Second,
	}
}

var bases = map[string]func() core.Config{
	"equiv": equivConfig,
	"small": smallConfig,
}

// studyRun is everything one full run leaves behind that the
// equivalence claims quantify over.
type studyRun struct {
	res    *core.Results
	report []byte
	// manifest is the manifest.json bytes with the store block split
	// off into store, so store-backed rows compare like any other.
	manifest []byte
	store    *provenance.StoreInfo
	shards   *provenance.ShardManifest
	runInfo  *provenance.RunInfo
	metrics  *obs.Registry
	// live and retired count the shard fleet's workers at the end.
	live, retired int
}

// runStudy executes the complete study under cfg and collects what it
// left behind. The study is closed before it returns.
func runStudy(t *testing.T, cfg core.Config) *studyRun {
	t.Helper()
	st, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatalf("NewStudy: %v", err)
	}
	defer st.Close()
	res, err := st.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var rep bytes.Buffer
	report.All(&rep, res)
	m := *st.Provenance
	m.Store = nil
	raw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	r := &studyRun{
		res:      res,
		report:   rep.Bytes(),
		manifest: append(raw, '\n'),
		store:    st.Provenance.Store,
		shards:   st.ShardManifest(),
		runInfo:  st.RunInfo,
		metrics:  st.Metrics,
	}
	if c := st.Coordinator(); c != nil {
		r.live, r.retired = c.Workers()
	}
	return r
}

// runs memoises full runs by key, so a reference — or a row another
// test compares against — runs once per test binary.
var runs = map[string]*studyRun{}

func memo(t *testing.T, key string, run func() *studyRun) *studyRun {
	t.Helper()
	r, ok := runs[key]
	if !ok {
		runs[key] = nil // a run that fails stays failed
		r = run()
		runs[key] = r
	}
	if r == nil {
		t.Fatalf("run %s failed earlier", key)
	}
	return r
}

// reference runs the named base once at one stage worker.
func reference(t *testing.T, base string) *studyRun {
	t.Helper()
	return memo(t, base+"/reference", func() *studyRun {
		cfg := bases[base]()
		cfg.StageWorkers = 1
		r := runStudy(t, cfg)
		if len(r.report) == 0 {
			t.Fatal("reference rendered an empty report")
		}
		if r.shards != nil {
			t.Fatal("unsharded reference recorded a shard manifest")
		}
		return r
	})
}

func storeBacked(t *testing.T, cfg core.Config) *studyRun {
	cfg.StoreDir = t.TempDir()
	return runStudy(t, cfg)
}

func stageWorkers(n int) func(*testing.T, core.Config) *studyRun {
	return func(t *testing.T, cfg core.Config) *studyRun {
		cfg.StageWorkers = n
		return runStudy(t, cfg)
	}
}

func sharded(n int, telemetryOff bool) func(*testing.T, core.Config) *studyRun {
	return func(t *testing.T, cfg core.Config) *studyRun {
		cfg.Shards = n
		cfg.FleetTelemetryOff = telemetryOff
		return runStudy(t, cfg)
	}
}

// profiled runs the study with a CPU profile attached, as cmd/studyprof
// does: all volatile observation must stay in sidecars.
func profiled(t *testing.T, cfg core.Config) *studyRun {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("cannot start CPU profile: %v", err)
	}
	defer pprof.StopCPUProfile()
	return runStudy(t, cfg)
}

func hasShards(n int) func(*testing.T, *studyRun) {
	return func(t *testing.T, got *studyRun) {
		if got.shards == nil || len(got.shards.Stages) == 0 {
			t.Fatal("sharded run recorded no shard manifest")
		}
		for name, s := range got.shards.Stages {
			if s.Shards != n {
				t.Errorf("stage %s recorded %d shards, want %d", name, s.Shards, n)
			}
		}
	}
}

// row is one execution mode of a base config.
type row struct {
	name  string
	base  string
	run   func(*testing.T, core.Config) *studyRun
	check func(*testing.T, *studyRun)
}

// smallShards3 is the uninterrupted three-shard fleet on the small base:
// a row of TestManifestEquivalence and the reference
// TestWorkerFailureReassignment's killed fleet must converge to.
var smallShards3 = row{name: "shards=3", base: "small", run: sharded(3, false), check: hasShards(3)}

// rowRun runs row once per test binary, memoised under base/name, so
// other tests can reuse it.
func rowRun(t *testing.T, r row) *studyRun {
	t.Helper()
	return memo(t, r.base+"/"+r.name, func() *studyRun { return r.run(t, bases[r.base]()) })
}

// runRows runs each row as a subtest and pins it to its base's
// one-stage-worker reference: DeepEqual Results, byte-identical report
// and byte-identical manifest.
func runRows(t *testing.T, rows []row) {
	t.Helper()
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ref := reference(t, row.base)
			got := rowRun(t, row)
			if !bytes.Equal(ref.manifest, got.manifest) {
				t.Errorf("manifest diverged from reference (%d bytes, got %d)", len(ref.manifest), len(got.manifest))
				logFirstDiff(t, ref.manifest, got.manifest)
			}
			if !bytes.Equal(ref.report, got.report) {
				t.Errorf("rendered report diverged from reference (%d bytes, got %d)", len(ref.report), len(got.report))
				logFirstDiff(t, ref.report, got.report)
			}
			if !reflect.DeepEqual(ref.res, got.res) {
				t.Error("Results struct diverged from reference")
			}
			if row.check != nil {
				row.check(t, got)
			}
		})
	}
}

// TestScheduleEquivalence: the DAG scheduler changes wall-clock only,
// at every stage-worker count.
func TestScheduleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline three times; skipped in -short")
	}
	runRows(t, []row{
		{name: "workers=4", base: "equiv", run: stageWorkers(4)},
		{name: "workers=16", base: "equiv", run: stageWorkers(16)},
	})
}

// TestShardEquivalence: sharding every crawl stage across a worker
// fleet changes wall-clock only, at every shard count.
func TestShardEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline four times; skipped in -short")
	}
	runRows(t, []row{
		{name: "shards=2", base: "equiv", run: sharded(2, false), check: hasShards(2)},
		{name: "shards=4", base: "equiv", run: sharded(4, false), check: hasShards(4)},
		{name: "shards=8", base: "equiv", run: sharded(8, false), check: hasShards(8)},
	})
}

// TestManifestEquivalence pins the small reference to internal/core's
// golden manifest and every other mode of the small base to that
// reference. Killed-and-resumed runs are internal/core's
// TestResumeEquivalence.
func TestManifestEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline many times; skipped in -short")
	}
	t.Run("small", func(t *testing.T) {
		t.Run("golden", func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("internal", "core", "testdata", "manifest.golden.json"))
			if err != nil {
				t.Fatal(err)
			}
			if ref := reference(t, "small"); !bytes.Equal(golden, ref.manifest) {
				t.Error("small reference diverged from internal/core's golden manifest")
				logFirstDiff(t, golden, ref.manifest)
			}
		})
		runRows(t, []row{
			{name: "stage-workers=0", base: "small", run: stageWorkers(0),
				check: func(t *testing.T, got *studyRun) {
					// runinfo.json records the worker count that ran.
					if got.runInfo.StageWorkers != runtime.NumCPU() {
						t.Errorf("runinfo stage_workers = %d, want NumCPU %d", got.runInfo.StageWorkers, runtime.NumCPU())
					}
				}},
			{name: "profiled", base: "small", run: profiled,
				check: func(t *testing.T, got *studyRun) {
					// Nothing mutates the registry once Run is done and no
					// poller is attached, so two renders are byte-identical.
					var a, b bytes.Buffer
					if err := got.metrics.WriteExposition(&a); err != nil {
						t.Fatal(err)
					}
					if err := got.metrics.WriteExposition(&b); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a.Bytes(), b.Bytes()) {
						t.Error("two exposition renders of a quiescent study registry differ")
					}
				}},
			smallShards3,
			{name: "shards=3/telemetry-off", base: "small", run: sharded(3, true), check: hasShards(3)},
			{name: "store-backed", base: "small", run: storeBacked,
				check: func(t *testing.T, got *studyRun) {
					if got.store == nil || got.store.Entries == 0 {
						t.Fatal("store-backed run recorded no store block in its manifest")
					}
				}},
		})
	})
}

// logFirstDiff reports the first line where two renderings diverge, so a
// failure points at the offending table instead of a byte offset.
func logFirstDiff(t *testing.T, want, got []byte) {
	t.Helper()
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := min(len(wl), len(gl))
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			t.Logf("first divergence at line %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
			return
		}
	}
	t.Logf("renderings agree for %d lines; lengths differ (want %d lines, got %d)", n, len(wl), len(gl))
}
