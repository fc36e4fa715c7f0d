// Package lint is studylint's engine: a stdlib-only static-analysis
// driver (go/parser + go/ast + go/types, no x/tools) that loads every
// package in the module and enforces the pipeline's determinism,
// resilience, and observability invariants at review time instead of
// run time. Each analyzer guards an invariant a past PR shipped — and,
// in two cases, a bug class a past PR shipped first:
//
//   - detrange: no order-dependent output from ranging a map in the
//     deterministic packages (the PR 3 certByBase bug class — Figure 3
//     flipped run to run on map iteration order).
//   - wallclock: no ambient time or global math/rand in manifest- and
//     digest-feeding packages; clocks and seeds must be injected.
//   - rawhttp: crawl-path packages route network I/O through the
//     internal/resilience retry/breaker contract, never raw net/http.
//   - metricnames: metric registrations use constant snake_case names
//     with the _total/_seconds suffix conventions the dashboards key on.
//   - errdrop: error returns from a configured must-check list are
//     never silently discarded in core/crawler.
//
// Four analyzers see past the single function or package, built on a
// module-wide function index (BuildIndex) shared per lint pass:
//
//   - detflow: detrange's interprocedural sibling — map-iteration-
//     ordered values tracked through returns, arguments and struct
//     fields into digest/manifest/report sinks, catching the
//     certByBase shape even when source and sink live in different
//     functions.
//   - locksafe: fields annotated `// guarded by <mu>` are only read or
//     written with that mutex held on every path; `// guarded by <mu>`
//     on a method makes it an entry-locked helper whose call sites
//     must hold the lock.
//   - goroleak: every `go` statement in the server-lifetime packages
//     has a provable cancellation edge (context, stop-channel receive,
//     or listener/server close), transitively through the call graph.
//   - wirecompat: the shard wire structs are locked append-only
//     against a golden schema file in testdata; removals, renames,
//     retypes, and new fields without omitempty are findings.
//
// Findings can be suppressed with a written reason:
//
//	//studylint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the offending line or the line directly above it. A suppression
// without a reason is itself a finding, and RunAudit reports every
// directive with a usage bit so `studylint -suppressions` can fail on
// stale ones. Everything here must stay dependency-free so `make lint`
// runs in offline CI unconditionally.
package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"
)

// Finding is one analyzer hit, addressable by file:line.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"` // module-root-relative path
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one invariant checker. Run is called once per loaded
// package for which Applies reports true. Analyzers that need the
// module-wide view (call graph, cross-package flows) set RunModule
// instead: it is called exactly once per lint pass with the shared
// Index over every loaded package, and Applies/Run are ignored.
type Analyzer struct {
	Name string
	// Doc is a one-line description of the guarded invariant.
	Doc string
	// Applies reports whether the analyzer runs on the package with the
	// given import path. Nil means every package.
	Applies func(cfg *Config, pkgPath string) bool
	Run     func(cfg *Config, pkg *Package) []Finding
	// RunModule, when non-nil, makes this a module analyzer: one call
	// over the shared function index instead of one call per package.
	RunModule func(cfg *Config, ix *Index) []Finding
}

// Config names the package classes and must-check functions the
// analyzers key on. Paths are module-root-relative import path
// suffixes ("internal/core" matches "pornweb/internal/core"), so the
// same config drives both the real module and test fixtures loaded
// under fixture roots.
type Config struct {
	// Deterministic packages must not emit order-dependent output from
	// map iteration (detrange).
	Deterministic []string
	// Wallclock packages feed manifests and digests and must not read
	// ambient time or global math/rand (wallclock).
	Wallclock []string
	// CrawlPath packages must not perform raw net/http I/O (rawhttp).
	CrawlPath []string
	// MustCheck lists functions whose error result may never be
	// discarded in core/crawler (errdrop), in types.Func.FullName form:
	// "io.Copy", "(*encoding/json.Encoder).Encode".
	MustCheck []string
	// ErrdropPkgs is where errdrop applies.
	ErrdropPkgs []string
	// PprofStageForwarders are the packages allowed to pass a dynamic
	// value for the "stage" pprof label (metricnames): the scheduler
	// forwards stage names its callers declared statically, so the
	// dynamic expression there is the plumbing, not the source. Other
	// packages must either use constant stage names or carry a written
	// suppression.
	PprofStageForwarders []string
	// FleetMetricPackages are the packages allowed to register metrics
	// in the fleet_* family (metricnames): those names are the shard
	// coordinator's federated fleet view, and the /fleet dashboard keys
	// on them meaning "the coordinator's merge points". A fleet_* name
	// registered anywhere else would read as fleet state while counting
	// something local.
	FleetMetricPackages []string
	// GoroutinePkgs are the server-lifetime packages where every `go`
	// statement must have a provable cancellation edge (goroleak): a
	// context, a stop-channel receive, or a listener/server whose Close
	// unblocks the goroutine, reachable from the spawned function.
	GoroutinePkgs []string
	// WirePkgs are the packages whose wire structs are locked against a
	// golden schema file (wirecompat).
	WirePkgs []string
	// WireStructs are the locked struct names inside WirePkgs.
	WireStructs []string
	// WireSchema is the schema file path relative to each wire
	// package's directory.
	WireSchema string
}

// DefaultConfig is the repo's invariant map: which packages promise
// what. Fixture tests reuse it so fixtures exercise the exact
// production configuration.
func DefaultConfig() *Config {
	return &Config{
		Deterministic: []string{
			"internal/core",
			"internal/provenance",
			"internal/report",
			"internal/attribution",
			"internal/webgen",
		},
		Wallclock: []string{
			"internal/core",
			"internal/provenance",
			"internal/report",
			"internal/attribution",
			"internal/webgen",
		},
		CrawlPath: []string{
			"internal/crawler",
			"internal/browser",
			"internal/core",
			"internal/vantage",
			// The shard control plane moves crawl work between processes;
			// its loopback hops obey the same routed-transport contract as
			// the crawl itself (one sanctioned Do under the resilience
			// loop, carrying a written suppression).
			"internal/shard",
		},
		MustCheck: []string{
			"io.Copy",
			"os.WriteFile",
			"os.MkdirAll",
			"(*os.File).Close",
			"(*bufio.Writer).Flush",
			"(*encoding/json.Encoder).Encode",
			"(*pornweb/internal/obs.AdminServer).Close",
			"(*pornweb/internal/core.Study).WriteProvenance",
			"(*pornweb/internal/provenance.Manifest).Write",
			"(*pornweb/internal/provenance.RunInfo).Write",
			// The durable visit store: a dropped error here is a visit that
			// looked persisted but was not — the exact failure mode the
			// crash-safety gate exists to rule out. Both the interface and
			// the concrete methods are listed so neither call form escapes.
			"(pornweb/internal/store.Store).Append",
			"(pornweb/internal/store.Store).Sync",
			"(pornweb/internal/store.Store).Checkpoint",
			"(pornweb/internal/store.Store).Close",
			"(*pornweb/internal/store.Log).Append",
			"(*pornweb/internal/store.Log).Sync",
			"(*pornweb/internal/store.Log).Checkpoint",
			"(*pornweb/internal/store.Log).Close",
			// The shard merge: a dropped error here is a shard that looked
			// merged but was not — a silently incomplete study. Dispatch
			// carries the validation verdicts; the Close pair releases the
			// loopback listeners.
			"(*pornweb/internal/shard.Coordinator).Dispatch",
			"(*pornweb/internal/shard.Coordinator).Close",
			"(*pornweb/internal/shard.Server).Close",
			"(*pornweb/internal/provenance.ShardManifest).Write",
		},
		ErrdropPkgs: []string{
			"internal/core",
			"internal/crawler",
			"internal/store",
			"internal/shard",
		},
		PprofStageForwarders: []string{
			"internal/sched",
		},
		FleetMetricPackages: []string{
			"internal/shard",
		},
		GoroutinePkgs: []string{
			// The long-lived server planes: coordinator/worker fleet, the
			// obs admin endpoint and runtime poller, and the study's TLS
			// vhost server. A leaked goroutine here outlives the run.
			"internal/shard",
			"internal/obs",
			"internal/webserver",
		},
		WirePkgs: []string{
			"internal/shard",
		},
		WireStructs: []string{
			"Assignment",
			"Result",
			"Entry",
			"Telemetry",
		},
		WireSchema: "testdata/wire_schema.txt",
	}
}

// inClass reports whether pkgPath ends in one of the class suffixes.
func inClass(pkgPath string, class []string) bool {
	for _, suffix := range class {
		if pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix) {
			return true
		}
	}
	return false
}

// Analyzers returns the full suite in stable order: the package-local
// lexical analyzers first, then the interprocedural module analyzers
// built on the shared function index.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetRange(),
		WallClock(),
		RawHTTP(),
		MetricNames(),
		ErrDrop(),
		WireCompat(),
		DetFlow(),
		LockSafe(),
		GoroLeak(),
	}
}

// AnalyzerNames returns the known analyzer names, sorted.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// Run applies the whole suite to the loaded packages, filters
// suppressed findings, folds in malformed-suppression findings, and
// returns the survivors deterministically sorted by file:line:col.
// Two identical trees produce byte-identical output.
func Run(cfg *Config, pkgs []*Package) []Finding {
	findings, _ := RunAudit(cfg, pkgs)
	return findings
}

// RunAudit is Run plus the suppression audit: alongside the surviving
// findings it returns every valid //studylint:ignore directive with
// its usage bit, so `studylint -suppressions` can list them and flag
// the stale ones.
func RunAudit(cfg *Config, pkgs []*Package) ([]Finding, []SuppressionRecord) {
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	sup := indexSuppressions(pkgs, known)
	var all []Finding
	all = append(all, sup.bad...)
	for _, pkg := range pkgs {
		for _, a := range Analyzers() {
			if a.RunModule != nil {
				continue
			}
			if a.Applies != nil && !a.Applies(cfg, pkg.Path) {
				continue
			}
			for _, f := range a.Run(cfg, pkg) {
				if sup.covers(a.Name, f.Line, f.File) {
					continue
				}
				all = append(all, f)
			}
		}
	}
	ix := BuildIndex(pkgs)
	for _, a := range Analyzers() {
		if a.RunModule == nil {
			continue
		}
		for _, f := range a.RunModule(cfg, ix) {
			if sup.covers(a.Name, f.Line, f.File) {
				continue
			}
			all = append(all, f)
		}
	}
	SortFindings(all)
	return all, sup.records()
}

// SortFindings orders findings by file, line, column, analyzer,
// message — the deterministic output contract.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// WriteText renders findings one per line in file:line:col form.
func WriteText(w io.Writer, fs []Finding) error {
	for _, f := range fs {
		if _, err := fmt.Fprintln(w, f.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders findings as a JSON array (never null).
func WriteJSON(w io.Writer, fs []Finding) error {
	if fs == nil {
		fs = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fs)
}

// position converts a token.Pos into a Finding-ready location using
// the package's root-relative file naming.
func (p *Package) position(pos token.Pos) (file string, line, col int) {
	pp := p.Fset.Position(pos)
	return p.relFile(pp.Filename), pp.Line, pp.Column
}

// finding builds a Finding at pos.
func (p *Package) finding(analyzer string, pos token.Pos, format string, args ...any) Finding {
	file, line, col := p.position(pos)
	return Finding{
		Analyzer: analyzer,
		File:     file,
		Line:     line,
		Col:      col,
		Message:  fmt.Sprintf(format, args...),
	}
}
