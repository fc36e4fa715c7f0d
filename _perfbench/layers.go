package main

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pornweb/internal/blocklist"
	"pornweb/internal/browser"
	"pornweb/internal/cookies"
	"pornweb/internal/core"
	"pornweb/internal/crawler"
	"pornweb/internal/htmlx"
	"pornweb/internal/jsvm"
	"pornweb/internal/obs"
	"pornweb/internal/shard"
	"pornweb/internal/store"
	"pornweb/internal/webgen"
	"pornweb/internal/webserver"
)

// The traced run: one iteration of the workload with the benchmark's
// own spans around every call into a layer, followed by probes that time
// each layer's public entry point on inputs taken from that run. Counts
// come from the study's metrics registry, RunInfo and runtime.MemStats;
// nothing inside the program is instrumented for the benchmark.

// tracedSpanBuffer is the tracer ring capacity of every study in the
// traced run: far more spans than one run records, so the in-flight
// count sees every visit. The run fails its load check if any span is
// evicted all the same.
const tracedSpanBuffer = 1 << 15

// minProbe is how long a probe repeats a cheap call to get a steady
// per-call figure.
const minProbe = 200 * time.Millisecond

// span is one recorded interval. Times are microseconds from the start
// of the trace; Parent 0 marks a root.
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS float64        `json:"start_us"`
	DurUS   float64        `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps the traced run's spans in memory until the run ends. It
// is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) since() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// start opens a span under parent and returns its ID.
func (t *tracer) start(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartUS: t.since()})
	return len(t.spans)
}

// end closes span id, attaching attrs.
func (t *tracer) end(id int, attrs map[string]any) {
	s := &t.spans[id-1]
	s.DurUS = t.since() - s.StartUS
	s.Attrs = attrs
}

// adopt copies the study's own stage spans (its existing tracer ring)
// under parent, so the span file shows where Run spent its time.
func (t *tracer) adopt(parent int, recs []obs.SpanRecord) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	ids := map[uint64]int{}
	for _, r := range recs {
		ids[r.ID] = len(t.spans) + 1
		p := parent
		if id, ok := ids[r.ParentID]; ok {
			p = id
		}
		attrs := map[string]any{"source": "study"}
		for k, v := range r.Attrs {
			attrs[k] = v
		}
		t.spans = append(t.spans, span{
			ID: len(t.spans) + 1, Parent: p, Name: r.Name,
			StartUS: float64(r.Start.Sub(t.t0).Nanoseconds()) / 1e3,
			DurUS:   float64(r.Duration.Nanoseconds()) / 1e3,
			Attrs:   attrs,
		})
	}
}

// maxInFlight is the largest number of page-visit spans open at one
// instant: the load model's bound on concurrent visits, observed.
func maxInFlight(recs []obs.SpanRecord) int {
	type edge struct {
		at    time.Time
		delta int
	}
	type key struct {
		name  string
		start int64
		dur   time.Duration
	}
	// A fleet's visit spans can reach the coordinator's ring as well as
	// the worker's own; count each visit once.
	seen := map[key]bool{}
	var edges []edge
	for _, r := range recs {
		k := key{r.Name, r.Start.UnixNano(), r.Duration}
		if (r.Name == "visit" || r.Name == "visit-interactive") && !seen[k] {
			seen[k] = true
			edges = append(edges, edge{r.Start, 1}, edge{r.Start.Add(r.Duration), -1})
		}
	}
	// Ends sort before starts at the same instant: touching visits do
	// not overlap.
	sort.Slice(edges, func(i, j int) bool {
		if !edges[i].at.Equal(edges[j].at) {
			return edges[i].at.Before(edges[j].at)
		}
		return edges[i].delta < edges[j].delta
	})
	open, peak := 0, 0
	for _, e := range edges {
		open += e.delta
		if open > peak {
			peak = open
		}
	}
	return peak
}

// layerReport is what the traced child hands the parent.
type layerReport struct {
	RunS    float64            `json:"run_s"`
	Metrics map[string]float64 `json:"metrics"`
	// Ledger is each layer's estimated CPU seconds in the run: per-call
	// CPU cost from its probe times the call count in the run.
	Ledger map[string]float64 `json:"ledger_cpu_s"`
	Spans  string             `json:"spans"`
	// ManifestErr is empty when the traced run's manifest passed the
	// check.
	ManifestErr string `json:"manifest_err,omitempty"`
	// LoadErr is empty when the traced run kept to the load model: no
	// more than nproc visits in flight, counted from a complete span
	// record.
	LoadErr string `json:"load_err,omitempty"`
}

// runCounts sums the study registry's counters by name once Run is done.
type runCounts map[string]float64

func countersOf(reg *obs.Registry) runCounts {
	c := runCounts{}
	for _, p := range reg.Snapshot().Points {
		if p.Kind != "counter" {
			continue
		}
		c[p.Name] += float64(p.Count)
		if p.Name == "webserver_tls_handshakes_total" && strings.Contains(p.Labels, `result="served"`) {
			c["handshakes_served"] += float64(p.Count)
		}
	}
	return c
}

// cost is one probe's measurement: calls made, wall time, CPU time.
type cost struct {
	calls int
	wall  time.Duration
	cpu   float64
}

func (c cost) cpuPerCall() float64 { return c.cpu / float64(c.calls) }
func (c cost) wallPerCall() time.Duration {
	return c.wall / time.Duration(c.calls)
}

// repeat calls fn over n items, cycling, until every item ran once, at
// least min calls were made and at least minProbe has passed, and
// returns the total cost.
func repeat(n, min int, fn func(i int)) cost {
	if n == 0 {
		return cost{calls: 1}
	}
	cpu0, t0 := cpuSeconds(), time.Now()
	calls := 0
	for calls < n || calls < min || time.Since(t0) < minProbe {
		fn(calls % n)
		calls++
	}
	return cost{calls: calls, wall: time.Since(t0), cpu: cpuSeconds() - cpu0}
}

// probeSession opens a crawl session against the study's server from
// Spain, with a registry of its own so probe traffic never mixes with
// the run's counts.
func probeSession(st *core.Study) (*crawler.Session, error) {
	return crawler.NewSession(crawler.Config{
		DialContext: st.Srv.DialContext,
		RootCAs:     st.Srv.CertPool(),
		Country:     "ES",
		Phase:       "crawl",
		Timeout:     st.Cfg.Timeout,
		Metrics:     obs.NewRegistry(),
	})
}

// traced runs the workload once with spans on, probes every layer and
// writes the span file.
func traced(bc benchConfig, spansPath string) (*layerReport, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	bc.SpanBuffer = tracedSpanBuffer
	tr := &tracer{t0: time.Now()}
	root := tr.start(0, "iteration/"+bc.Workload)
	m := map[string]float64{}
	ledger := map[string]float64{}

	sp := tr.start(root, "setup")
	in, err := setUp(ctx, bc, bc.Workload)
	if err != nil {
		return nil, fmt.Errorf("set up: %w", err)
	}
	tr.end(sp, nil)
	defer in.removeScratch()
	st := in.st

	var r iterResult
	sp = tr.start(root, "run")
	res, manifest, err := runMeasured(ctx, in, &r)
	if err != nil {
		in.tearDown()
		return nil, err
	}
	tr.end(sp, map[string]any{"attempted_visits": r.Attempted, "cpu_s": r.CPUS})
	recs := st.Tracer.Recent()
	tr.adopt(sp, recs)
	counts := countersOf(st.Metrics)
	evicted := counts["spans_evicted_total"]
	for _, w := range in.workers {
		recs = append(recs, w.Tracer.Recent()...)
		evicted += countersOf(w.Metrics)["spans_evicted_total"]
	}
	inFlight := maxInFlight(recs)
	m["browser.max_in_flight"] = float64(inFlight)
	var loadErr string
	if err := checkLoad(inFlight, runtime.NumCPU(), evicted); err != nil {
		loadErr = err.Error()
	}
	if err := checkManifest(bc, manifest); err != nil {
		r.ManifestErr = err.Error()
	}
	m["visit_fail_ratio"] = r.visitFailRatio()
	m["runtime.gc_cycles"] = float64(r.GCCycles)
	visits := float64(r.Attempted)
	crawled := float64(r.Attempted - r.Failed)

	// core: stage walls from RunInfo.
	for name, ms := range st.RunInfo.StageWallMS {
		switch {
		case name == "corpus":
			m["core.corpus_ms"] += ms
		case strings.HasPrefix(name, "crawl/"):
			m["core.crawl_ms"] += ms
		case strings.HasPrefix(name, "analysis/"):
			m["core.analysis_ms"] += ms
		}
	}
	for _, a := range []string{"organizations", "https", "policies"} {
		m["core.analysis."+a+"_ms"] = st.RunInfo.StageWallMS["analysis/"+a]
	}

	// webserver: the run's handshake and request counts.
	m["webserver.certs_minted"] = counts["webserver_certs_minted_total"]
	m["webserver.handshakes_per_visit"] = counts["handshakes_served"] / visits
	m["webserver.requests_per_handshake"] = counts["webserver_requests_secure_total"] / nonzero(counts["handshakes_served"])
	m["crawler.requests_per_visit"] = counts["crawler_requests_total"] / visits

	// browser: visit the ES porn and reference sites from a fresh
	// session, pass after pass until p99 is reportable.
	sp = tr.start(root, "probe/browser")
	hosts := append(append([]string(nil), res.Corpus.Porn...), res.Corpus.Reference...)
	porn := map[string]bool{}
	for _, h := range res.Corpus.Porn {
		porn[h] = true
	}
	var visitMS []float64
	var pages []*browser.PageVisit
	var reqLog []crawler.Record
	var env jsvm.Env
	for pass := 0; pass == 0 || len(visitMS) < samplesFor(0.99); pass++ {
		sess, err := probeSession(st)
		if err != nil {
			in.tearDown()
			return nil, err
		}
		b := browser.New(sess)
		env = b.Env
		for _, h := range hosts {
			t0 := time.Now()
			pv := b.Visit(ctx, h)
			visitMS = append(visitMS, float64(time.Since(t0).Nanoseconds())/1e6)
			if pass == 0 {
				pages = append(pages, pv)
			}
		}
		if pass == 0 {
			reqLog = sess.Log()
		}
	}
	m["browser.visit_ms_p50"] = percentile(visitMS, 0.5)
	m["browser.visit_ms_p99"] = percentile(visitMS, 0.99)
	tr.end(sp, map[string]any{"visits": len(visitMS)})
	var pornLog []crawler.Record
	for _, rec := range reqLog {
		if porn[rec.SiteHost] {
			pornLog = append(pornLog, rec)
		}
	}

	// crawler: refetch the logged URLs in a fresh session, keeping
	// script bodies for the jsvm probe.
	sp = tr.start(root, "probe/crawler")
	var fetches []crawler.Record
	for _, rec := range reqLog {
		if rec.Initiator != crawler.InitRedirect {
			fetches = append(fetches, rec)
		}
	}
	if len(fetches) > 3000 {
		fetches = fetches[:3000]
	}
	sess, err := probeSession(st)
	if err != nil {
		in.tearDown()
		return nil, err
	}
	scripts := map[string]string{}
	var fetchUS []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	fetchCost := repeat(len(fetches), samplesFor(0.99), func(i int) {
		rec := fetches[i]
		t0 := time.Now()
		res, err := sess.Fetch(ctx, rec.URL, rec.SiteHost, rec.Initiator, rec.ParentURL)
		fetchUS = append(fetchUS, float64(time.Since(t0).Nanoseconds())/1e3)
		if err == nil && rec.Initiator == crawler.InitScript {
			scripts[rec.URL] = res.Body
		}
	})
	runtime.ReadMemStats(&ms1)
	m["crawler.fetch_us_p50"] = percentile(fetchUS, 0.5)
	m["crawler.fetch_us_p99"] = percentile(fetchUS, 0.99)
	m["crawler.alloc_kb_per_request"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(fetchCost.calls)
	ledger["crawler+webserver fetch"] = fetchCost.cpuPerCall() * counts["crawler_requests_total"]
	tr.end(sp, map[string]any{"fetches": fetchCost.calls})

	// webgen: answer the logged requests directly.
	sp = tr.start(root, "probe/webgen")
	reqs := make([]webgen.Request, 0, len(reqLog))
	for _, rec := range reqLog {
		u, err := url.Parse(rec.URL)
		if err != nil {
			continue
		}
		reqs = append(reqs, webgen.Request{
			Host: rec.Host, Path: u.Path, Query: u.Query(), Country: rec.Country,
			ClientIP: "127.0.0.1", Referer: rec.Referer, Secure: rec.Scheme == "https",
			Phase: webgen.PhaseCrawl,
		})
	}
	c := repeat(len(reqs), 0, func(i int) { st.Eco.Respond(reqs[i]) })
	m["webgen.respond_us"] = us(c.wallPerCall())
	tr.end(sp, map[string]any{"calls": c.calls})

	// webserver: first (minting) and repeat TLS handshakes against a
	// fresh server for the same ecosystem.
	sp = tr.start(root, "probe/webserver")
	mint, cached, err := probeHandshakes(ctx, st.Eco, reqLog)
	if err != nil {
		in.tearDown()
		return nil, err
	}
	m["webserver.handshake_mint_us"] = us(mint.wallPerCall())
	m["webserver.handshake_cached_us"] = us(cached.wallPerCall())
	if extra := mint.cpuPerCall() - cached.cpuPerCall(); extra > 0 {
		ledger["webserver cert minting"] = extra * counts["webserver_certs_minted_total"]
	}
	tr.end(sp, map[string]any{"hosts": mint.calls})

	// htmlx: parse every page the browser probe loaded.
	sp = tr.start(root, "probe/htmlx")
	var html []string
	htmlBytes := 0
	for _, pv := range pages {
		if pv.HTML != "" {
			html = append(html, pv.HTML)
			htmlBytes += len(pv.HTML)
		}
	}
	c = repeat(len(html), 0, func(i int) { htmlx.Parse(html[i]) })
	passes := float64(c.calls) / float64(len(html))
	m["htmlx.parse_mb_per_s"] = passes * float64(htmlBytes) / (1 << 20) / c.wall.Seconds()
	ledger["htmlx parse"] = c.cpuPerCall() * crawled
	tr.end(sp, map[string]any{"calls": c.calls})

	// jsvm: execute the fetched script bodies and the pages' inline
	// scripts.
	sp = tr.start(root, "probe/jsvm")
	type script struct{ url, src string }
	var srcs []script
	for u, s := range scripts {
		srcs = append(srcs, script{u, s})
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].url < srcs[j].url })
	traces := 0
	for _, pv := range pages {
		traces += len(pv.Traces)
		for _, s := range htmlx.Parse(pv.HTML).InlineScripts() {
			srcs = append(srcs, script{"", s})
		}
	}
	c = repeat(len(srcs), 0, func(i int) { jsvm.Execute(srcs[i].url, srcs[i].src, env) })
	m["jsvm.exec_us"] = us(c.wallPerCall())
	m["jsvm.scripts_per_visit"] = float64(traces) / float64(len(pages))
	ledger["jsvm execute"] = c.cpuPerCall() * m["jsvm.scripts_per_visit"] * counts["browser_page_loads_total"]
	tr.end(sp, map[string]any{"calls": c.calls})

	// blocklist and cookies over the porn-ES log.
	sp = tr.start(root, "probe/blocklist")
	list := blocklist.Merge("probe", st.EasyList)
	c = repeat(len(pornLog), 0, func(i int) { list.MatchURL(pornLog[i].URL, pornLog[i].SiteHost) })
	m["blocklist.match_ns"] = float64(c.wallPerCall().Nanoseconds())
	ledger["blocklist match"] = c.cpuPerCall() * counts["blocklist_checks_total"]
	tr.end(sp, map[string]any{"calls": c.calls})
	sp = tr.start(root, "probe/cookies")
	c = repeat(1, 0, func(int) { cookies.DetectSyncs(pornLog) })
	m["cookies.sync_detect_ms"] = ms(c.wallPerCall())
	ledger["cookies sync detection"] = c.cpuPerCall()
	tr.end(sp, map[string]any{"calls": c.calls, "records": len(pornLog)})

	// provenance: assemble the manifest again.
	sp = tr.start(root, "probe/provenance")
	c = repeat(1, 0, func(int) { _, _ = st.BuildManifest(res) }) // the run already built it once without error
	m["provenance.manifest_ms"] = ms(c.wallPerCall())
	ledger["provenance manifest"] = c.cpuPerCall()
	tr.end(sp, map[string]any{"calls": c.calls})

	// shard: run one shard of the ES porn crawl and round-trip its
	// result through the codec.
	sp = tr.start(root, "probe/shard")
	shards := 2 * runtime.NumCPU()
	a := shard.Assignment{
		Stage: "crawl/porn-ES", Corpus: "porn", Vantage: "ES", Shards: shards,
		Fingerprint: st.Fingerprint(), Seed: int64(bc.Seed),
		Hosts: shard.Partition(res.Corpus.Porn, shards)[0],
	}
	sr, err := st.RunShard(ctx, a, nil)
	if err != nil {
		in.tearDown()
		return nil, fmt.Errorf("probe shard: %w", err)
	}
	frame, err := shard.EncodeResult(sr)
	if err != nil {
		in.tearDown()
		return nil, fmt.Errorf("probe shard: %w", err)
	}
	enc := repeat(1, 0, func(int) { _, _ = shard.EncodeResult(sr) }) // encoded once above without error
	dec := repeat(1, 0, func(int) { _, _ = shard.DecodeResult(frame) })
	mb := float64(len(frame)) / (1 << 20)
	m["shard.encode_mb_per_s"] = mb / enc.wallPerCall().Seconds()
	m["shard.decode_mb_per_s"] = mb / dec.wallPerCall().Seconds()
	m["shard.result_kb"] = float64(len(frame)) / 1024
	if st.Coordinator() != nil && len(sr.Entries) > 0 {
		// Every durable entry of a sharded run crossed the codec once each
		// way.
		perEntry := (enc.cpuPerCall() + dec.cpuPerCall()) / float64(len(sr.Entries))
		ledger["shard codec"] = perEntry * counts["store_append_total"]
	}
	tr.end(sp, map[string]any{"entries": len(sr.Entries), "frame_bytes": len(frame)})

	fp := st.Fingerprint()
	sp = tr.start(root, "teardown")
	t0 := time.Now()
	st.Srv.Close()
	m["webserver.close_s"] = time.Since(t0).Seconds()
	in.tearDown()
	tr.end(sp, nil)

	// store: replay and read the reference store, then append its
	// entries to a fresh one at the default sync cadence.
	sp = tr.start(root, "probe/store")
	get, appendC, err := probeStore(bc, fp, visits, m)
	if err != nil {
		return nil, err
	}
	ledger["store get"] = get.cpuPerCall() * counts["store_replay_records_total"]
	ledger["store append"] = appendC.cpuPerCall() * counts["store_append_total"]
	tr.end(sp, map[string]any{"entries": get.calls})
	tr.end(root, nil)

	var explained float64
	for _, v := range ledger {
		explained += v
	}
	m["ledger.explained_cpu_share"] = explained / r.CPUS
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[k] = 0 // a probe with no input; JSON has no NaN
		}
	}
	if err := writeSpans(spansPath, bc, tr.spans); err != nil {
		return nil, err
	}
	return &layerReport{RunS: r.RunS, Metrics: m, Ledger: ledger, Spans: spansPath,
		ManifestErr: r.ManifestErr, LoadErr: loadErr}, nil
}

// probeHandshakes completes a TLS handshake through a fresh server's
// DialContext for each HTTPS host in the log, twice: the first mints
// the host's certificate, the second finds it cached.
func probeHandshakes(ctx context.Context, eco *webgen.Ecosystem, log []crawler.Record) (mint, cached cost, err error) {
	srv, err := webserver.Start(eco)
	if err != nil {
		return cost{}, cost{}, fmt.Errorf("probe webserver: %w", err)
	}
	defer srv.Close()
	seen := map[string]bool{}
	var hosts []string
	for _, rec := range log {
		if rec.Scheme == "https" && rec.Status != 0 && !seen[rec.Host] && len(hosts) < 300 {
			seen[rec.Host] = true
			hosts = append(hosts, rec.Host)
		}
	}
	handshake := func(host string) error {
		conn, err := srv.DialContext(ctx, "tcp", host+":443")
		if err != nil {
			return err
		}
		defer conn.Close()
		return tls.Client(conn, &tls.Config{ServerName: host, RootCAs: srv.CertPool()}).HandshakeContext(ctx)
	}
	pass := func() (cost, error) {
		cpu0, t0 := cpuSeconds(), time.Now()
		for _, h := range hosts {
			if err := handshake(h); err != nil {
				return cost{}, fmt.Errorf("probe handshake %s: %w", h, err)
			}
		}
		return cost{calls: len(hosts), wall: time.Since(t0), cpu: cpuSeconds() - cpu0}, nil
	}
	if len(hosts) == 0 {
		return cost{calls: 1}, cost{calls: 1}, nil
	}
	if mint, err = pass(); err != nil {
		return cost{}, cost{}, err
	}
	cached, err = pass()
	return mint, cached, err
}

// probeStore times store.Open with resume on the reference store and a
// Get of every entry, then appends the same entries to a fresh store and
// prices its size on disk per visit of the run.
func probeStore(bc benchConfig, fp string, visits float64, m map[string]float64) (get, appendC cost, err error) {
	opts := store.Options{Fingerprint: fp, Seed: int64(bc.Seed), Resume: true}
	t0 := time.Now()
	ref, err := store.Open(bc.refStore(), opts)
	if err != nil {
		return cost{}, cost{}, fmt.Errorf("probe store: %w", err)
	}
	m["store.open_s"] = time.Since(t0).Seconds()
	type entry struct {
		k store.Key
		v []byte
	}
	var entries []entry
	err = ref.Scan("", func(k store.Key, v []byte) error {
		entries = append(entries, entry{k, append([]byte(nil), v...)})
		return nil
	})
	if err == nil {
		get = repeat(len(entries), 0, func(i int) { _, _, _ = ref.Get(entries[i].k) }) // Scan just read every entry
	}
	if cerr := ref.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return cost{}, cost{}, fmt.Errorf("probe store: %w", err)
	}
	m["store.get_us"] = us(get.wallPerCall())

	dir, err := os.MkdirTemp(bc.Work, "append-store-")
	if err != nil {
		return cost{}, cost{}, err
	}
	defer os.RemoveAll(dir)
	fresh, err := store.Open(dir, store.Options{Fingerprint: fp, Seed: int64(bc.Seed)})
	if err != nil {
		return cost{}, cost{}, fmt.Errorf("probe store: %w", err)
	}
	cpu0, t1 := cpuSeconds(), time.Now()
	for _, e := range entries {
		if err = fresh.Append(e.k, e.v); err != nil {
			break
		}
	}
	appendC = cost{calls: len(entries), wall: time.Since(t1), cpu: cpuSeconds() - cpu0}
	if cerr := fresh.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return cost{}, cost{}, fmt.Errorf("probe store append: %w", err)
	}
	size, err := dirSize(dir)
	if err != nil {
		return cost{}, cost{}, fmt.Errorf("probe store size: %w", err)
	}
	if len(entries) > 0 {
		m["store.append_us"] = us(appendC.wallPerCall())
		m["store.bytes_per_visit"] = float64(size) / visits
	}
	return get, appendC, nil
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// writeSpans writes the span file: the run's identity and every span.
func writeSpans(path string, bc benchConfig, spans []span) error {
	raw, err := json.MarshalIndent(struct {
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Scale    float64 `json:"scale"`
		Spans    []span  `json:"spans"`
	}{bc.Workload, bc.Seed, scale, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func nonzero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}
