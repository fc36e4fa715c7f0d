// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload of the study — a cold in-memory run (study), a run
// against a complete durable store (resume), or a store-backed run
// dispatched to a loopback shard fleet (sharded) — again and again for a
// fixed time, each iteration in a fresh child process, checks every
// run's manifest against a reference, and prints the medians.
//
// Usage, from the root of a checkout:
//
//	bash _perfbench/run.sh --workload study|resume|sharded [--seed 2019]
//	    [--seconds 10] [--trace 0|1]
//
// The last line of standard output is one JSON object: with --trace 0
// the end-to-end metrics, with --trace 1 the per-layer metrics of one
// extra traced run. Results files and span files go to
// .bench_build/perfbench/out. See README.md beside this file.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// budget bounds a whole invocation: no new iteration starts once the
// previous one's duration would carry the run past it.
const budget = 150 * time.Second

// scale is the corpus size every run generates (1.0 = the paper's corpus
// sizes). It is fixed so that result sets stay comparable; see README.md
// for why it is 0.05.
const scale = 0.05

// traceReserve is the part of budget a --trace 1 run keeps for its
// traced child.
const traceReserve = 40 * time.Second

// metricSpec names one reported metric.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run reports, as medians over its
// iterations.
var endToEnd = []metricSpec{
	{"visits_per_s", "1/s"},
	{"setup_s", "s"},
	{"teardown_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"allocs_m", "M"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a --trace 1 run reports.
var perLayer = []metricSpec{
	{"visit_fail_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"ledger.explained_cpu_share", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"core.corpus_ms", "ms"},
	{"core.crawl_ms", "ms"},
	{"core.analysis_ms", "ms"},
	{"core.analysis.organizations_ms", "ms"},
	{"core.analysis.https_ms", "ms"},
	{"core.analysis.policies_ms", "ms"},
	{"webserver.handshakes_per_visit", "count"},
	{"webserver.certs_minted", "count"},
	{"webserver.requests_per_handshake", "count"},
	{"webserver.handshake_mint_us", "us"},
	{"webserver.handshake_cached_us", "us"},
	{"webserver.close_s", "s"},
	{"webgen.respond_us", "us"},
	{"crawler.requests_per_visit", "count"},
	{"crawler.fetch_us_p50", "us"},
	{"crawler.fetch_us_p99", "us"},
	{"crawler.alloc_kb_per_request", "KB"},
	{"browser.visit_ms_p50", "ms"},
	{"browser.visit_ms_p99", "ms"},
	{"browser.max_in_flight", "count"},
	{"htmlx.parse_mb_per_s", "MB/s"},
	{"jsvm.exec_us", "us"},
	{"jsvm.scripts_per_visit", "count"},
	{"blocklist.match_ns", "ns"},
	{"cookies.sync_detect_ms", "ms"},
	{"provenance.manifest_ms", "ms"},
	{"store.append_us", "us"},
	{"store.bytes_per_visit", "B"},
	{"store.open_s", "s"},
	{"store.get_us", "us"},
	{"shard.encode_mb_per_s", "MB/s"},
	{"shard.decode_mb_per_s", "MB/s"},
	{"shard.result_kb", "KB"},
}

type options struct {
	bench   benchConfig
	seconds int
	trace   int
	root    string
	child   string
}

func main() {
	var o options
	flag.StringVar(&o.bench.Workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Uint64Var(&o.bench.Seed, "seed", 2019, "generation seed")
	flag.IntVar(&o.seconds, "seconds", 10, "how long to keep starting measured iterations")
	flag.IntVar(&o.trace, "trace", 0, "1 adds one traced run and reports the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "checkout root; outputs go under its .bench_build/perfbench")
	flag.StringVar(&o.child, "child", "", "internal: run one step (prepare, iter, trace) in this process")
	flag.StringVar(&o.bench.Work, "work", "", "internal: work directory of the invocation")
	flag.Parse()
	if o.child != "" {
		os.Exit(runChild(o))
	}
	os.Exit(runParent(o))
}

// runChild runs one step and prints its JSON result on standard output.
func runChild(o options) int {
	var out any
	var err error
	switch o.child {
	case "prepare":
		err = prepare(o.bench)
		out = struct{}{}
	case "iter":
		out, err = iterate(o.bench)
	case "trace":
		out, err = traced(o.bench, spansPath(o))
	default:
		err = fmt.Errorf("unknown step %q", o.child)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func outDir(o options) string { return filepath.Join(o.root, ".bench_build", "perfbench", "out") }

func spansPath(o options) string {
	return filepath.Join(outDir(o), fmt.Sprintf("spans-%s-seed%d.json", o.bench.Workload, o.bench.Seed))
}

// child runs one step in a fresh process, decodes its result into v and
// returns the process's peak RSS in KB.
func child(ctx context.Context, o options, step string, v any) (int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", step,
		"-workload", o.bench.Workload, "-seed", fmt.Sprint(o.bench.Seed),
		"-work", o.bench.Work, "-root", o.root)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s step: %w", step, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), v); err != nil {
		return 0, fmt.Errorf("%s step output: %w", step, err)
	}
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	return rss, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runParent(o options) int {
	if !contains(workloads, o.bench.Workload) {
		fmt.Fprintf(os.Stderr, "perfbench: -workload must be one of %s\n", strings.Join(workloads, ", "))
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), budget+20*time.Second)
	defer cancel()
	o.bench.Work = filepath.Join(o.root, ".bench_build", "perfbench", "work",
		fmt.Sprintf("%s-%d-%d", o.bench.Workload, o.bench.Seed, os.Getpid()))
	if err := os.MkdirAll(o.bench.Work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(o.bench.Work)
	if err := os.MkdirAll(outDir(o), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	var done struct{}
	if _, err := child(ctx, o, "prepare", &done); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var iters []iterResult
	tried, failed := 0, 0
	loopBudget := budget
	if o.trace == 1 {
		loopBudget -= traceReserve
	}
	loop := time.Now()
	var last time.Duration
	for tried == 0 || time.Since(loop) < time.Duration(o.seconds)*time.Second {
		if time.Since(start)+last > loopBudget {
			break
		}
		tried++
		t0 := time.Now()
		var r iterResult
		rss, err := child(ctx, o, "iter", &r)
		last = time.Since(t0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			failed++
			continue
		}
		r.MaxRSSKB = rss
		if r.ManifestErr != "" {
			fmt.Fprintf(os.Stderr, "perfbench: manifest check failed: %s\n", r.ManifestErr)
			failed++
		}
		iters = append(iters, r)
	}
	if len(iters) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no iteration completed")
		return 1
	}
	series := seriesOf(iters)

	var layers *layerReport
	if o.trace == 1 {
		layers = &layerReport{}
		if _, err := child(ctx, o, "trace", layers); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		tried++
		if layers.ManifestErr != "" {
			fmt.Fprintf(os.Stderr, "perfbench: traced run's manifest check failed: %s\n", layers.ManifestErr)
			failed++
		} else if layers.LoadErr != "" {
			fmt.Fprintf(os.Stderr, "perfbench: traced run's load check failed: %s\n", layers.LoadErr)
			failed++
		}
		layers.Metrics["trace.overhead_ratio"] = layers.RunS / median(series["run_s"])
	}

	res := result{Correct: failed == 0, Attempted: tried, Failed: failed, Metrics: map[string]metric{}}
	if layers == nil {
		for _, s := range endToEnd {
			res.Metrics[s.name] = metric{median(series[s.name]), s.unit}
		}
	} else {
		for _, s := range perLayer {
			res.Metrics[s.name] = metric{layers.Metrics[s.name], s.unit}
		}
	}
	report(os.Stdout, o, iters, series, layers)
	if err := writeResults(o, iters, series, layers); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// seriesOf turns the iterations into one value list per metric.
func seriesOf(iters []iterResult) map[string][]float64 {
	s := map[string][]float64{}
	for _, r := range iters {
		s["visits_per_s"] = append(s["visits_per_s"], float64(r.Attempted)/r.RunS)
		s["setup_s"] = append(s["setup_s"], r.SetupS)
		s["teardown_s"] = append(s["teardown_s"], r.TeardownS)
		s["cpu_s"] = append(s["cpu_s"], r.CPUS)
		s["alloc_mb"] = append(s["alloc_mb"], r.AllocMB)
		s["allocs_m"] = append(s["allocs_m"], r.AllocsM)
		s["peak_rss_mb"] = append(s["peak_rss_mb"], float64(r.MaxRSSKB)/1024)
		s["visit_fail_ratio"] = append(s["visit_fail_ratio"], r.visitFailRatio())
		s["run_s"] = append(s["run_s"], r.RunS)
	}
	return s
}

// report prints the human-readable table: every end-to-end metric with
// its median and quartiles, then the per-layer metrics when traced.
func report(w io.Writer, o options, iters []iterResult, series map[string][]float64, layers *layerReport) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d scale=%g iterations=%d nproc=%d\n",
		o.bench.Workload, o.bench.Seed, scale, len(iters), runtime.NumCPU())
	rows := append(append([]metricSpec(nil), endToEnd...), metricSpec{"visit_fail_ratio", "ratio"})
	for _, s := range rows {
		q1, q2, q3 := quartiles(series[s.name])
		fmt.Fprintf(w, "  %-18s %12.4f %-6s (q1 %.4f, q3 %.4f, n=%d)\n", s.name, q2, s.unit, q1, q3, len(series[s.name]))
	}
	if layers == nil {
		return
	}
	for _, s := range perLayer {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", s.name, layers.Metrics[s.name], s.unit)
	}
	names := make([]string, 0, len(layers.Ledger))
	for n := range layers.Ledger {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  ledger %-28s %10.3f cpu-s\n", n, layers.Ledger[n])
	}
	fmt.Fprintf(w, "  spans: %s\n", layers.Spans)
}

// runMeta identifies the host and code a result set came from, so that
// numbers from two hosts are never compared unawares.
type runMeta struct {
	CPUModel     string  `json:"cpu_model"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	Seed         uint64  `json:"seed"`
	Scale        float64 `json:"scale"`
	Workload     string  `json:"workload"`
	Seconds      int     `json:"seconds"`
	StartedAt    string  `json:"started_at"`
}

func meta(o options) runMeta {
	return runMeta{
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       commit(o.root),
		SourceSHA256: sourceDigest(o.root),
		Seed:         o.bench.Seed,
		Scale:        scale,
		Workload:     o.bench.Workload,
		Seconds:      o.seconds,
		StartedAt:    time.Now().UTC().Format(time.RFC3339),
	}
}

// writeResults writes the invocation's results file: metadata, every
// iteration, and per-metric medians and quartiles.
func writeResults(o options, iters []iterResult, series map[string][]float64, layers *layerReport) error {
	type summary struct {
		Median, Q1, Q3 float64
		N              int
	}
	sums := map[string]summary{}
	for name, xs := range series {
		q1, q2, q3 := quartiles(xs)
		sums[name] = summary{q2, q1, q3, len(xs)}
	}
	raw, err := json.MarshalIndent(struct {
		Meta       runMeta            `json:"meta"`
		Iterations []iterResult       `json:"iterations"`
		Summary    map[string]summary `json:"summary"`
		Layers     *layerReport       `json:"layers,omitempty"`
	}{meta(o), iters, sums, layers}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir(o), fmt.Sprintf("result-%s-seed%d-trace%d.json", o.bench.Workload, o.bench.Seed, o.trace))
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit reads the checked-out commit from .git, or "unknown" when the
// checkout is not a git repository; sourceDigest identifies the code
// either way.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref)))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

// sourceDigest hashes every Go source and module file of the checkout,
// skipping hidden directories such as the build directory.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p) // p is under root by construction
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func contains(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}
