// Fleet observability harness: the telemetry return path of a sharded
// crawl must be a pure sidecar. A remote fleet with telemetry on must
// federate every worker's metrics, spans and flight events into the
// coordinator's unified views — and whether telemetry is on, off, or
// partially lost, the merged results and the run manifest must stay
// byte-identical to an unsharded run. Observability may degrade; data
// may not. Telemetry off in-process is TestManifestEquivalence's
// small/shards=3/telemetry-off row.
package pornweb_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"pornweb/internal/core"
	"pornweb/internal/obs"
	"pornweb/internal/provenance"
	"pornweb/internal/resilience"
	"pornweb/internal/shard"
)

// startFleetWorker builds one worker study (its own registry, tracer
// and flight recorder — a `pornstudy -worker` process in miniature),
// serves assignments on loopback, and registers with the coordinator.
// Passing withObs=false leaves the Server's observability plane unwired,
// the shape of a worker that predates (or lost) the telemetry path.
// Every fleet-test study derives from smallConfig: each worker rebuilds
// the whole ecosystem, so the corpus stays small, and the
// fingerprint-relevant fields must match between coordinator and
// workers or the workers refuse assignments.
func startFleetWorker(t *testing.T, coordAddr, label string, withObs bool) *core.Study {
	t.Helper()
	wst, err := core.NewStudy(smallConfig())
	if err != nil {
		t.Fatalf("worker study: %v", err)
	}
	t.Cleanup(wst.Close)
	srv := &shard.Server{
		Label:       label,
		Runner:      wst,
		Fingerprint: wst.Fingerprint(),
		Seed:        int64(smallConfig().Params.Seed),
	}
	if withObs {
		srv.Registry = wst.Metrics
		srv.Tracer = wst.Tracer
		srv.Flight = wst.Flight
		srv.MetricsAddr = "127.0.0.1:0" // reported, not bound: the link is advisory
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("worker server: %v", err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("worker close: %v", err)
		}
	})
	ctrl := resilience.NewController(resilience.Policy{
		MaxAttempts: 5, Seed: 11,
		BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond,
	})
	if err := shard.Register(context.Background(), nil, ctrl, coordAddr,
		shard.Registration{Name: label, Addr: srv.Addr(), MetricsAddr: srv.MetricsAddr}); err != nil {
		t.Fatalf("register %s: %v", label, err)
	}
	return wst
}

// runFleet runs the full pipeline on a coordinator study with the given
// number of telemetry-bearing and telemetry-less remote workers, and
// returns the coordinator study (still open for fleet-view inspection)
// plus the manifest bytes.
func runFleet(t *testing.T, cfg core.Config, withObs, withoutObs int) (*core.Study, []byte) {
	t.Helper()
	st, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatalf("coordinator study: %v", err)
	}
	t.Cleanup(st.Close)
	for i := 0; i < withObs; i++ {
		startFleetWorker(t, st.Coordinator().Addr(), fmt.Sprintf("obs%d", i), true)
	}
	for i := 0; i < withoutObs; i++ {
		startFleetWorker(t, st.Coordinator().Addr(), fmt.Sprintf("dark%d", i), false)
	}
	if _, err := st.Run(context.Background()); err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	raw, err := json.MarshalIndent(st.Provenance, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return st, append(raw, '\n')
}

// TestFleetFederation runs a coordinator with three telemetry-bearing
// remote workers and checks the whole observability plane: federated
// metrics account for every worker visit, the fleet report shows
// healthy telemetry, the merged trace carries one trace ID across a
// coordinator row plus one row per worker — and the manifest is
// byte-identical to the small reference.
func TestFleetFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline on a remote fleet; skipped in -short")
	}
	ref := reference(t, "small").manifest

	cfg := smallConfig()
	cfg.Shards = 3
	cfg.CoordinatorAddr = "127.0.0.1:0"
	cfg.ShardMinWorkers = 3
	st, manifest := runFleet(t, cfg, 3, 0)
	if !bytes.Equal(ref, manifest) {
		t.Error("fleet manifest diverged from the small reference")
		logFirstDiff(t, ref, manifest)
	}

	coord := st.Coordinator()
	report := coord.FleetReport()
	if report.TraceID == "" {
		t.Fatal("fleet report has no trace ID")
	}
	if got := obs.MintTraceID(st.Fingerprint(), int64(cfg.Params.Seed)); report.TraceID != got {
		t.Errorf("trace ID %s, want the minted %s", report.TraceID, got)
	}
	if len(report.Workers) != 3 {
		t.Fatalf("fleet report shows %d workers, want 3", len(report.Workers))
	}
	totalVisits := 0
	for _, w := range report.Workers {
		if w.Telemetry != "ok" {
			t.Errorf("worker %s telemetry %q, want ok", w.Name, w.Telemetry)
		}
		if w.ShardsDone == 0 {
			t.Errorf("worker %s completed no shards", w.Name)
		}
		if w.Spans == 0 {
			t.Errorf("worker %s contributed no spans to the merged trace", w.Name)
		}
		totalVisits += w.Visits

		// Federation accounting: the per-visit counters merged from this
		// worker's metric deltas (instrumented page loads plus
		// interactive visits) must equal the visits the coordinator
		// counted from its entries.
		var federated, counted float64
		snap := st.Metrics.Snapshot()
		for _, p := range snap.Points {
			if !strings.Contains(p.Labels, `worker="`+w.Name+`"`) {
				continue
			}
			switch p.Name {
			case "browser_page_loads_total", "browser_interactive_visits_total":
				federated += float64(p.Count)
			case "fleet_worker_visits_total":
				counted = float64(p.Count)
			}
		}
		if counted != float64(w.Visits) {
			t.Errorf("worker %s: fleet_worker_visits_total %.0f, fleet report says %d", w.Name, counted, w.Visits)
		}
		if federated < 0.99*counted || counted == 0 {
			t.Errorf("worker %s: federated page loads %.0f of %.0f counted visits", w.Name, federated, counted)
		}
	}
	if totalVisits == 0 {
		t.Error("fleet completed zero visits")
	}

	// The merged trace: coordinator + one process row per worker, every
	// trace_id-bearing span under the run's single ID.
	var buf bytes.Buffer
	if err := obs.WriteChromeTraceProcesses(&buf, coord.TraceProcesses(st.Tracer.Recent())); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			PID  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			rows[ev.Args["name"]] = true
		}
		if id, ok := ev.Args["trace_id"]; ok && id != report.TraceID {
			t.Errorf("span %q under trace %s, want %s", ev.Name, id, report.TraceID)
		}
	}
	for _, want := range []string{"coordinator", "obs0", "obs1", "obs2"} {
		if !rows[want] {
			t.Errorf("merged trace missing process row %q (have %v)", want, rows)
		}
	}

	// Flight events federated from workers carry their origin identity.
	if ev := st.Flight.Events(); len(ev) > 0 {
		tagged := 0
		for _, e := range ev {
			if e.Worker != "" && e.Shard > 0 {
				tagged++
			}
		}
		if tagged == 0 {
			t.Error("no federated flight events carry worker/shard identity")
		}
	}
}

// TestFleetTelemetryLossDegrades runs a mixed fleet — two workers with
// the telemetry plane wired, one without (the shape of a lost or
// pre-telemetry worker). The merge must stay clean and byte-identical;
// only the fleet view may degrade, marking the dark worker's telemetry
// as absent while the others stay "ok".
func TestFleetTelemetryLossDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline on a remote fleet; skipped in -short")
	}
	ref := reference(t, "small").manifest

	cfg := smallConfig()
	cfg.Shards = 3
	cfg.CoordinatorAddr = "127.0.0.1:0"
	cfg.ShardMinWorkers = 3
	st, manifest := runFleet(t, cfg, 2, 1)
	if !bytes.Equal(ref, manifest) {
		t.Error("manifest diverged when one worker lost telemetry")
		logFirstDiff(t, ref, manifest)
	}

	report := st.Coordinator().FleetReport()
	byName := map[string]shard.WorkerHealth{}
	for _, w := range report.Workers {
		byName[w.Name] = w
	}
	dark, ok := byName["dark0"]
	if !ok {
		t.Fatal("dark worker missing from fleet report")
	}
	if dark.Telemetry == "ok" || dark.Telemetry == "inline" {
		t.Errorf("telemetry-less worker reported %q, want a degraded status", dark.Telemetry)
	}
	if dark.ShardsDone == 0 {
		t.Error("dark worker merged no shards — telemetry loss must not cost data")
	}
	for _, name := range []string{"obs0", "obs1"} {
		if w := byName[name]; w.Telemetry != "ok" {
			t.Errorf("worker %s telemetry %q, want ok despite dark peer", name, w.Telemetry)
		}
	}
}

// TestWorkerFailureReassignment kills one in-process worker at a
// seeded visit mid-shard: the coordinator must retire it, reassign the
// lost shard to a survivor, and converge to exactly the bytes an
// uninterrupted fleet produces — manifest, shard sidecar and Results.
// The uninterrupted fleet is TestManifestEquivalence's small/shards=3
// row, run once for both.
func TestWorkerFailureReassignment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline on a failing fleet; skipped in -short")
	}
	ref := rowRun(t, smallShards3)
	if ref.retired != 0 || ref.live != 3 {
		t.Fatalf("uninterrupted fleet ended with %d live / %d retired workers, want 3/0",
			ref.live, ref.retired)
	}

	cfg := smallConfig()
	cfg.Shards = 3
	// Exit is left nil: in-process the "death" is the worker failing
	// every subsequent assignment, which is what a vanished process
	// looks like to the coordinator.
	cfg.ShardKill = &shard.KillSwitch{After: 5}
	got := runStudy(t, cfg)
	if got.retired != 1 || got.live != 2 {
		t.Fatalf("killed fleet ended with %d live / %d retired workers, want 2/1",
			got.live, got.retired)
	}
	if !bytes.Equal(ref.manifest, got.manifest) {
		t.Error("manifest after worker death diverged from uninterrupted fleet")
		logFirstDiff(t, ref.manifest, got.manifest)
	}
	if !reflect.DeepEqual(ref.res, got.res) {
		t.Error("Results after worker death diverged from uninterrupted fleet")
	}
	if got.shards == nil || ref.shards == nil {
		t.Fatal("sharded runs recorded no shard manifest")
	}
	if stages := provenance.DiffShardStages(ref.shards, got.shards); stages != nil {
		t.Errorf("shard sidecar diverged after worker death in stages %v", stages)
	}
}
