package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"pornweb/internal/provenance"
	"pornweb/internal/webgen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenPath is the checked-in manifest of provCfg(11): the fixed
// reference every schedule, shard count and resume must reproduce.
var goldenPath = filepath.Join("testdata", "manifest.golden.json")

// provCfg is the fixed small-study config every provenance test runs:
// small enough to run several full studies per test binary, with a
// non-default country list so the geo fan-out stages exist. It leaves
// StageWorkers at the default, so stages run concurrently.
func provCfg(seed uint64) Config {
	return Config{
		Params:    webgen.Params{Seed: seed, Scale: 0.004},
		Countries: []string{"ES", "US", "RU"},
		Workers:   4,
		Timeout:   5 * time.Second,
	}
}

// The golden-config run is shared by every test that inspects it.
var (
	goldenOnce sync.Once
	goldenM    *provenance.Manifest
	goldenRaw  []byte
)

// goldenRun runs provCfg(11) once per test binary at one stage worker —
// one stage at a time, the schedule the golden manifest was written
// under — and returns its manifest plus the exact manifest.json bytes.
func goldenRun(t *testing.T) (*provenance.Manifest, []byte) {
	t.Helper()
	goldenOnce.Do(func() {
		cfg := provCfg(11)
		cfg.StageWorkers = 1
		st, raw := runManifest(t, cfg)
		goldenM, goldenRaw = st.Provenance, raw
	})
	if goldenM == nil {
		t.Fatal("golden-config run failed in an earlier test")
	}
	return goldenM, goldenRaw
}

// runManifest runs one full study, closes it, and returns it plus the
// exact bytes manifest.json would contain. Closing releases a store
// directory for a subsequent resume.
func runManifest(t *testing.T, cfg Config) (*Study, []byte) {
	t.Helper()
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	if st.Provenance == nil {
		t.Fatal("Run completed but Study.Provenance is nil")
	}
	dir := t.TempDir()
	if err := st.WriteProvenance(dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "runinfo.json")); err != nil {
		t.Fatalf("runinfo.json sidecar missing: %v", err)
	}
	return st, raw
}

// TestManifestDeterministic perturbs the seed of the golden config: the
// manifest must diverge from the golden one, and the DAG walk must pin
// the divergence on the earliest stage — the corpus every crawl
// consumed. That two runs of one config agree byte for byte is
// TestManifestGolden's claim; that every schedule agrees is the root
// package's TestScheduleEquivalence and TestManifestEquivalence.
func TestManifestDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full study")
	}
	golden, err := provenance.LoadManifest(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	ost, _ := runManifest(t, provCfg(13))
	other := ost.Provenance
	d := provenance.Diff(golden, other)
	if d.Identical {
		t.Fatal("runs with different seeds produced identical manifests")
	}
	if !d.SeedChanged || !d.ConfigChanged {
		t.Errorf("seed perturbation: SeedChanged=%v ConfigChanged=%v, want both true", d.SeedChanged, d.ConfigChanged)
	}
	if want := []string{"corpus"}; !reflect.DeepEqual(d.RootStages, want) {
		t.Errorf("RootStages = %v, want %v", d.RootStages, want)
	}
	for _, fd := range d.Figures {
		if len(fd.EarliestStages) == 0 {
			t.Errorf("figure %s diverged with no earliest stage", fd.Name)
			continue
		}
		if fd.EarliestStages[0] != "corpus" {
			t.Errorf("figure %s earliest stages = %v, want [corpus]", fd.Name, fd.EarliestStages)
		}
	}
	// The golden file and a fresh golden-config run are two separately
	// produced manifests with equal content.
	fresh, _ := goldenRun(t)
	if d := provenance.Diff(golden, fresh); !d.Identical {
		t.Fatalf("Diff of equal manifests not identical: %+v", d)
	}
}

// TestManifestContents sanity-checks one run's manifest shape: every
// pipeline stage recorded, inputs wired from the DAG, corpora digested,
// every figure present with a stage that exists.
func TestManifestContents(t *testing.T) {
	cfg := provCfg(11)
	m, _ := goldenRun(t)

	if m.Version != provenance.ManifestVersion {
		t.Errorf("Version = %d, want %d", m.Version, provenance.ManifestVersion)
	}
	if m.Seed != 11 || m.Scale != 0.004 {
		t.Errorf("Seed/Scale = %d/%v, want 11/0.004", m.Seed, m.Scale)
	}
	if m.ConfigFingerprint == "" {
		t.Error("empty config fingerprint")
	}
	for _, c := range []string{"porn", "reference"} {
		ci, ok := m.Corpora[c]
		if !ok || ci.Count == 0 || ci.Digest == "" {
			t.Errorf("corpus %s missing or empty: %+v", c, ci)
		}
	}
	for name := range pipelineDeps(cfg.Countries) {
		info, ok := m.Stages[name]
		if !ok {
			t.Errorf("stage %s missing from manifest", name)
			continue
		}
		if info.Digest == "" {
			t.Errorf("stage %s has no digest", name)
		}
	}
	if got := m.Stages["crawl/porn-ES"].Inputs; !reflect.DeepEqual(got, []string{"corpus"}) {
		t.Errorf("crawl/porn-ES inputs = %v, want [corpus]", got)
	}
	if len(m.Figures) != len(figureSpecs) {
		t.Errorf("manifest has %d figures, want %d", len(m.Figures), len(figureSpecs))
	}
	for name, fi := range m.Figures {
		if len(fi.Stages) == 0 || fi.Digest == "" {
			t.Errorf("figure %s incomplete: %+v", name, fi)
			continue
		}
		if _, ok := m.Stages[fi.Stages[0]]; !ok {
			t.Errorf("figure %s references unknown stage %s", name, fi.Stages[0])
		}
	}
}

// TestPipelineDependencies pins the static DAG the manifest publishes
// against the live graph buildPipeline schedules: if a stage or edge is
// added to one and not the other, the diff gate would walk a stale DAG.
func TestPipelineDependencies(t *testing.T) {
	countries := []string{"ES", "US", "RU", "IN"}
	st := &Study{Cfg: Config{Countries: countries}}
	g := st.buildPipeline(newPipeState())

	got := g.Dependencies()
	want := pipelineDeps(countries)
	if len(got) != len(want) {
		t.Errorf("graph has %d stages, static map %d", len(got), len(want))
	}
	for name, deps := range want {
		gdeps, ok := got[name]
		if !ok {
			t.Errorf("stage %s in pipelineDeps but not in graph", name)
			continue
		}
		sort.Strings(gdeps)
		sorted := append([]string(nil), deps...)
		sort.Strings(sorted)
		if !reflect.DeepEqual(gdeps, sorted) && (len(gdeps) != 0 || len(sorted) != 0) {
			t.Errorf("stage %s deps: graph %v, static %v", name, gdeps, sorted)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("stage %s in graph but not in pipelineDeps", name)
		}
	}
}

// TestManifestGolden compares one fixed run's manifest against the
// checked-in golden file, so any change to an analysis, the digest
// scheme or the manifest schema shows up as a reviewable diff. Regenerate
// with: go test ./internal/core -run TestManifestGolden -update
func TestManifestGolden(t *testing.T) {
	_, raw := goldenRun(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(raw, want) {
		a, _ := provenance.LoadManifest(goldenPath)
		var b provenance.Manifest
		dir := t.TempDir()
		path := filepath.Join(dir, "got.json")
		os.WriteFile(path, raw, 0o644)
		if got, err2 := provenance.LoadManifest(path); err2 == nil {
			b = *got
		}
		var buf bytes.Buffer
		provenance.Diff(a, &b).Format(&buf)
		t.Fatalf("manifest drifted from golden (regenerate with -update if intentional):\n%s", buf.String())
	}
}
