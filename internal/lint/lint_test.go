package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite fixture expect.txt goldens")

// fixtures maps each golden fixture directory to the import path it
// impersonates. Paths only need the right suffix for the package
// classes in DefaultConfig, so every fixture gets a unique path and
// one loader (with one type-checked stdlib) serves them all.
var fixtures = []struct {
	dir        string
	importPath string
}{
	{"detrange_certbybase", "fixture/certbybase/internal/attribution"},
	{"detrange_report", "fixture/detrange/internal/report"},
	{"wallclock_manifest", "fixture/wallclock/internal/provenance"},
	{"rawhttp_crawl", "fixture/rawhttp/internal/crawler"},
	{"rawhttp_elsewhere", "fixture/rawhttp/internal/tools"},
	{"metricnames_bad", "fixture/metricnames/internal/crawler"},
	{"metricnames_fleet", "fixture/fleetmetrics/internal/crawler"},
	{"pproflabel_bad", "fixture/pproflabel/internal/browser"},
	{"errdrop_core", "fixture/errdrop/internal/core"},
	{"errdrop_store", "fixture/errdrop/internal/store"},
	{"rawhttp_shard", "fixture/rawhttp/internal/shard"},
	{"errdrop_shard", "fixture/errdrop/internal/shard"},
	{"suppress_malformed", "fixture/suppress/internal/provenance"},
	{"detflow_certbybase", "fixture/detflow/internal/attribution"},
	{"goroleak_bad", "fixture/goroleak/internal/obs"},
	{"locksafe_bad", "fixture/locksafe/internal/sched"},
	{"wirecompat_removed", "fixture/wirecompat/internal/shard"},
}

var (
	loaderOnce sync.Once
	sharedL    *Loader
	loaderErr  error
)

// sharedLoader hands out one module loader for the whole test binary
// so the stdlib is source-type-checked once, not per test.
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		sharedL, loaderErr = NewLoader("../..")
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return sharedL
}

// runFixture lints one fixture dir under its impersonated import path.
func runFixture(t *testing.T, l *Loader, dir, importPath string) []Finding {
	t.Helper()
	pkg, err := l.LoadFixture(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	return Run(DefaultConfig(), []*Package{pkg})
}

// TestFixtures pins each analyzer against golden expected-findings
// files. Every fixture re-creates a historical bug class — including
// the PR 3 certByBase map-order bug and a raw http.Get on the crawl
// path — so re-introducing one is caught by construction.
func TestFixtures(t *testing.T) {
	l := sharedLoader(t)
	for _, fx := range fixtures {
		t.Run(fx.dir, func(t *testing.T) {
			findings := runFixture(t, l, fx.dir, fx.importPath)
			var buf bytes.Buffer
			if err := WriteText(&buf, findings); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "src", fx.dir, "expect.txt")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestCertByBaseRegressionCaught spells out the acceptance criterion:
// the PR 3 unsorted-map-iteration bug (fixture copy) must be flagged
// by detrange, and its sorted fix must not be.
func TestCertByBaseRegressionCaught(t *testing.T) {
	findings := runFixture(t, sharedLoader(t), "detrange_certbybase", "fixture/certbybase2/internal/attribution")
	var hit, okFileHit bool
	for _, f := range findings {
		if f.Analyzer != "detrange" {
			t.Errorf("unexpected %s finding: %s", f.Analyzer, f)
		}
		if f.File == "bad.go" && strings.Contains(f.Message, "certByBase") {
			hit = true
		}
		if f.File == "ok.go" {
			okFileHit = true
		}
	}
	if !hit {
		t.Error("detrange did not flag the certByBase bug fixture")
	}
	if okFileHit {
		t.Error("detrange flagged the sorted (fixed) variant")
	}
}

// TestRawHTTPRegressionCaught: a raw http.Get in internal/crawler
// (fixture copy) must be flagged; the suppressed sanctioned call and
// the same code outside the crawl path must not be.
func TestRawHTTPRegressionCaught(t *testing.T) {
	l := sharedLoader(t)
	findings := runFixture(t, l, "rawhttp_crawl", "fixture/rawhttp2/internal/crawler")
	var gets, dos int
	for _, f := range findings {
		if f.Analyzer != "rawhttp" {
			t.Errorf("unexpected %s finding: %s", f.Analyzer, f)
		}
		if strings.Contains(f.Message, "http.Get") {
			gets++
		}
		if strings.Contains(f.Message, "(*http.Client).Do") {
			dos++
		}
	}
	if gets != 1 || dos != 1 {
		t.Errorf("want 1 http.Get + 1 unsuppressed Client.Do finding, got %d + %d: %v", gets, dos, findings)
	}
	if off := runFixture(t, l, "rawhttp_elsewhere", "fixture/rawhttp2/internal/tools"); len(off) != 0 {
		t.Errorf("rawhttp flagged a non-crawl-path package: %v", off)
	}
}

// TestModuleClean is the dogfood gate in test form: the suite must
// report zero findings on the repo's own tree. Any new finding either
// gets fixed or carries a written suppression — never lands silently.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type check")
	}
	pkgs, err := sharedLoader(t).LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(DefaultConfig(), pkgs)
	for _, f := range findings {
		t.Errorf("finding on the repo tree: %s", f)
	}
}

// TestOutputDeterministic runs the full-module lint twice with
// independent loaders and requires byte-identical text and JSON
// output — studylint's own invariant, held to the same standard it
// enforces.
func TestOutputDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-module type checks")
	}
	render := func() (string, string) {
		l, err := NewLoader("../..")
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := l.LoadModule()
		if err != nil {
			t.Fatal(err)
		}
		// The tree is clean, so fold in a fixture with many findings to
		// make the byte-equality check meaningful.
		fpkg, err := l.LoadFixture(filepath.Join("testdata", "src", "metricnames_bad"),
			"fixture/determinism/internal/crawler")
		if err != nil {
			t.Fatal(err)
		}
		findings := Run(DefaultConfig(), append(pkgs, fpkg))
		if len(findings) == 0 {
			t.Fatal("expected fixture findings in the determinism probe")
		}
		var txt, js bytes.Buffer
		if err := WriteText(&txt, findings); err != nil {
			t.Fatal(err)
		}
		if err := WriteJSON(&js, findings); err != nil {
			t.Fatal(err)
		}
		return txt.String(), js.String()
	}
	txtA, jsA := render()
	txtB, jsB := render()
	if txtA != txtB {
		t.Errorf("text output differs between runs:\n--- A ---\n%s--- B ---\n%s", txtA, txtB)
	}
	if jsA != jsB {
		t.Error("JSON output differs between runs")
	}
}

// TestDetFlowCrossFunctionCaught pins the tentpole acceptance
// criterion: the certByBase flow split across two functions —
// invisible to the intra-procedural detrange — is flagged by detflow
// at its sinks, and the sorted variants in ok.go stay clean.
func TestDetFlowCrossFunctionCaught(t *testing.T) {
	findings := runFixture(t, sharedLoader(t), "detflow_certbybase", "fixture/detflow2/internal/attribution")
	var firstWins, fprintSink, callSink bool
	for _, f := range findings {
		if f.File == "ok.go" {
			t.Errorf("flagged the sorted (fixed) variant: %s", f)
		}
		if f.Analyzer != "detflow" {
			continue
		}
		switch {
		case strings.Contains(f.Message, "first-wins store"):
			firstWins = true
		case strings.Contains(f.Message, "reaches fmt.Fprintln"):
			fprintSink = true
		case strings.Contains(f.Message, "passes map-iteration-ordered value"):
			callSink = true
		}
	}
	if !firstWins {
		t.Error("detflow missed the cross-function first-wins store (the certByBase shape)")
	}
	if !fprintSink {
		t.Error("detflow missed the returned-taint-to-Fprintln flow")
	}
	if !callSink {
		t.Error("detflow missed the tainted argument to a parameter-sink function")
	}
}

// TestWireFieldRemovalCaught pins the other acceptance criterion:
// deleting a field from the shard result header in a scratch fixture
// is flagged by wirecompat as a removal against the golden schema.
func TestWireFieldRemovalCaught(t *testing.T) {
	findings := runFixture(t, sharedLoader(t), "wirecompat_removed", "fixture/wirecompat2/internal/shard")
	for _, f := range findings {
		if f.Analyzer == "wirecompat" &&
			strings.Contains(f.Message, "resultHeader.Digest") &&
			strings.Contains(f.Message, "removed") {
			return
		}
	}
	t.Errorf("wirecompat did not flag the deleted resultHeader.Digest field; findings: %v", findings)
}

// TestAnalyzerNamesStable pins the suite roster; new analyzers must
// update docs and this list together.
func TestAnalyzerNamesStable(t *testing.T) {
	want := []string{"detflow", "detrange", "errdrop", "goroleak", "locksafe",
		"metricnames", "rawhttp", "wallclock", "wirecompat"}
	got := AnalyzerNames()
	if len(got) != len(want) {
		t.Fatalf("analyzers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("analyzers = %v, want %v", got, want)
		}
	}
}

// TestFleetMetricPrefixReserved pins the fleet_* reservation from both
// sides: the identical fixture loaded under internal/shard (the
// package class holding the reservation) loses every fleet-prefix
// finding, while any other import path keeps them — and the suffix
// rules keep firing in shard, so the exemption is surgical.
func TestFleetMetricPrefixReserved(t *testing.T) {
	l := sharedLoader(t)
	asCrawler := runFixture(t, l, "metricnames_fleet", "fixture/fleetmetrics2/internal/crawler")
	asShard := runFixture(t, l, "metricnames_fleet", "fixture/fleetmetrics2/internal/shard")
	count := func(findings []Finding, substr string) int {
		n := 0
		for _, f := range findings {
			if strings.Contains(f.Message, substr) {
				n++
			}
		}
		return n
	}
	if got := count(asCrawler, "reserved for the shard coordinator"); got != 5 {
		t.Errorf("crawler fixture: %d fleet-prefix findings, want 5: %v", got, asCrawler)
	}
	if got := count(asShard, "reserved for the shard coordinator"); got != 0 {
		t.Errorf("shard fixture: %d fleet-prefix findings, want 0 (reservation holder): %v", got, asShard)
	}
	// The reservation does not relax the rest of the contract: the
	// counter missing _total fires under both import paths.
	for name, findings := range map[string][]Finding{"crawler": asCrawler, "shard": asShard} {
		if got := count(findings, `counter "fleet_shards_done" must end in _total`); got != 1 {
			t.Errorf("%s fixture: %d suffix findings on fleet_shards_done, want 1", name, got)
		}
	}
}

// TestPprofStageForwarderExempt pins the one sanctioned dynamic-stage
// call site: the identical fixture loaded under an internal/sched
// import path loses only the dynamic-stage-value finding (the
// scheduler forwards names its callers declared statically) — every
// other pprof label finding still applies there.
func TestPprofStageForwarderExempt(t *testing.T) {
	l := sharedLoader(t)
	asBrowser := runFixture(t, l, "pproflabel_bad", "fixture/pproflabel2/internal/browser")
	asSched := runFixture(t, l, "pproflabel_bad", "fixture/pproflabel2/internal/sched")
	count := func(findings []Finding, substr string) int {
		n := 0
		for _, f := range findings {
			if strings.Contains(f.Message, substr) {
				n++
			}
		}
		return n
	}
	if got := count(asBrowser, "must be a constant stage name"); got != 1 {
		t.Errorf("browser fixture: %d dynamic-stage findings, want 1", got)
	}
	if got := count(asSched, "must be a constant stage name"); got != 0 {
		t.Errorf("sched fixture: %d dynamic-stage findings, want 0 (forwarder exemption)", got)
	}
	// The exemption is surgical: everything else still fires in sched.
	for _, substr := range []string{
		"alternating key/value pairs",
		"pprof label key must be a constant string",
		`"Stage" is not snake_case`,
		"does not match the stage naming convention",
	} {
		if got := count(asSched, substr); got != 1 {
			t.Errorf("sched fixture: %d findings matching %q, want 1", got, substr)
		}
	}
}
