// Package browser is the page-loading engine on top of the instrumented
// HTTP session: it fetches a landing page, parses the DOM, loads every
// embedded subresource (scripts, images, iframes — recursively, bounded),
// executes JavaScript through the jsvm interpreter and issues the network
// requests those scripts trigger. This is the OpenWPM-analog "browser" of
// the study. A second, interactive mode reproduces the paper's
// Selenium-based crawler: it detects and clicks through age-verification
// interstitials and harvests privacy policies (Section 3.1).
package browser

import (
	"context"
	"fmt"
	"net/url"
	"runtime/pprof"
	"strings"
	"time"

	"pornweb/internal/consent"
	"pornweb/internal/crawler"
	"pornweb/internal/htmlx"
	"pornweb/internal/jsvm"
	"pornweb/internal/obs"
	"pornweb/internal/resilience"
)

// maxIframeDepth bounds recursive iframe loading (RTB chains nest ads in
// ads).
const maxIframeDepth = 3

// Profiling op labels for the browser's two CPU-heavy leaf operations.
// They layer onto the ambient stage/vantage label set, so a hot-path
// profile splits a crawl stage's time into HTML tokenization and script
// interpretation without losing stage attribution.
var (
	tokenizeLabels = pprof.Labels("op", "tokenize")
	jsvmLabels     = pprof.Labels("op", "jsvm")
)

// parseHTML is htmlx.Parse under the op=tokenize profile label.
func parseHTML(ctx context.Context, body string) *htmlx.Node {
	var doc *htmlx.Node
	pprof.Do(ctx, tokenizeLabels, func(context.Context) {
		doc = htmlx.Parse(body)
	})
	return doc
}

// Browser drives page loads over one crawl session.
type Browser struct {
	Session *crawler.Session
	// Env is the ambient state scripts can observe.
	Env jsvm.Env

	// Stage and Corpus label the pipeline stage and corpus this browser is
	// crawling for; Rank resolves a site's toplist rank. All three are
	// optional flight-recorder enrichments set by the study layer.
	Stage  string
	Corpus string
	Rank   func(host string) int

	met browserMetrics
}

// browserMetrics holds pre-resolved page-load instruments; all nil (and
// therefore no-ops) when the session carries no registry.
type browserMetrics struct {
	pageLoad    *obs.Histogram
	pageOK      *obs.Counter
	pageFail    *obs.Counter
	failClass   map[resilience.Class]*obs.Counter
	interactive *obs.Counter
	subres      map[crawler.Initiator]*obs.Counter
}

func newBrowserMetrics(reg *obs.Registry, country string) browserMetrics {
	if reg == nil {
		return browserMetrics{}
	}
	reg.Describe("browser_page_load_seconds", "full instrumented page-load duration (subresources and scripts included)")
	reg.Describe("browser_page_loads_total", "instrumented page loads by outcome")
	reg.Describe("browser_subresources_total", "subresources fetched during page loads, by initiator")
	reg.Describe("browser_interactive_visits_total", "Selenium-analog interactive visits")
	reg.Describe("browser_page_failures_total", "failed page visits by taxonomy class")
	m := browserMetrics{
		pageLoad:    reg.Histogram("browser_page_load_seconds", obs.LatencyBuckets, "country", country),
		pageOK:      reg.Counter("browser_page_loads_total", "country", country, "result", "ok"),
		pageFail:    reg.Counter("browser_page_loads_total", "country", country, "result", "error"),
		failClass:   map[resilience.Class]*obs.Counter{},
		interactive: reg.Counter("browser_interactive_visits_total", "country", country),
		subres:      map[crawler.Initiator]*obs.Counter{},
	}
	for _, c := range resilience.Classes() {
		m.failClass[c] = reg.Counter("browser_page_failures_total", "country", country, "class", string(c))
	}
	for _, init := range []crawler.Initiator{crawler.InitScript, crawler.InitImage,
		crawler.InitIframe, crawler.InitCSS, crawler.InitJS} {
		m.subres[init] = reg.Counter("browser_subresources_total", "country", country, "kind", string(init))
	}
	return m
}

// New builds a browser with a Firefox-52-like environment, matching the
// paper's OpenWPM build.
func New(session *crawler.Session) *Browser {
	return &Browser{
		Session: session,
		Env: jsvm.Env{
			UserAgent: "Mozilla/5.0 (X11; Linux x86_64; rv:52.0) Gecko/20100101 Firefox/52.0",
			ScreenW:   1920,
			ScreenH:   1080,
			Language:  "en-US",
		},
		met: newBrowserMetrics(session.Metrics(), session.Country()),
	}
}

// ScriptTrace pairs an executed script with its instrumentation trace.
type ScriptTrace struct {
	URL      string // "" for inline scripts
	Host     string // host serving the script ("" for inline)
	SiteHost string
	Trace    *jsvm.Trace
}

// PageVisit is the outcome of one instrumented page load.
type PageVisit struct {
	SiteHost string
	FinalURL string
	HTTPS    bool // the site itself answered over TLS
	OK       bool
	Err      string
	// FailClass is the failure-taxonomy class when the visit failed
	// (resilience.Class), "" on success.
	FailClass string
	HTML      string
	// DOM is never serialized: parent pointers make the tree cyclic,
	// and htmlx.Parse(HTML) reconstructs it deterministically — which
	// is exactly what the durable store does when replaying a visit.
	DOM    *htmlx.Node `json:"-"`
	Traces []ScriptTrace
	// Subresources counts fetched embeds by initiator kind.
	Subresources map[crawler.Initiator]int
}

// Visit loads a site's landing page with full instrumentation. When the
// session has a page budget, the whole visit — document, retries,
// subresources, scripts — runs under one deadline.
func (b *Browser) Visit(ctx context.Context, host string) *PageVisit {
	if pb := b.Session.PageBudget(); pb > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pb)
		defer cancel()
	}
	start := time.Now()
	pv := &PageVisit{SiteHost: host, Subresources: map[crawler.Initiator]int{}}
	ctx, span := obs.StartSpan(ctx, "visit")
	span.SetAttr("site", host)
	if b.Stage != "" {
		span.SetAttr("stage", b.Stage)
	}
	defer func() {
		b.met.pageLoad.Observe(time.Since(start).Seconds())
		for kind, n := range pv.Subresources {
			b.met.subres[kind].Add(uint64(n))
		}
		if pv.OK {
			b.met.pageOK.Inc()
		} else {
			b.met.pageFail.Inc()
			if pv.FailClass != "" {
				b.met.failClass[resilience.Class(pv.FailClass)].Inc()
			}
		}
		span.End()
		// Gate all event-field gathering on an enabled recorder so the
		// disabled path stays allocation-free per visit.
		if b.Session.Flight().Enabled() {
			b.emitFlight(pv.SiteHost, pv.OK, pv.FailClass, false, time.Since(start), span.ID())
		}
	}()
	res, https, err := b.Session.FetchPage(ctx, host, "/")
	if err != nil {
		pv.Err = err.Error()
		pv.FailClass = string(resilience.Classify(err))
		return pv
	}
	if cls := resilience.ClassifyStatus(res.Status); cls != "" {
		// The page "loaded" but only with a terminal failure status
		// (every retry exhausted on 5xx, or a 451 legal block).
		pv.Err = fmt.Sprintf("HTTP %d", res.Status)
		pv.FailClass = string(cls)
		pv.HTTPS = https
		pv.FinalURL = res.FinalURL
		return pv
	}
	pv.OK = true
	pv.HTTPS = https
	pv.FinalURL = res.FinalURL
	pv.HTML = res.Body
	pv.DOM = parseHTML(ctx, res.Body)
	b.loadDocument(ctx, pv, pv.DOM, res.FinalURL, 0)
	return pv
}

// loadDocument fetches a parsed document's subresources and executes its
// scripts. depth tracks iframe nesting.
func (b *Browser) loadDocument(ctx context.Context, pv *PageVisit, doc *htmlx.Node, baseURL string, depth int) {
	base, err := url.Parse(baseURL)
	if err != nil {
		return
	}
	resolve := func(ref string) string {
		u, err := url.Parse(strings.TrimSpace(ref))
		if err != nil {
			return ""
		}
		return base.ResolveReference(u).String()
	}
	for _, r := range doc.Resources() {
		target := resolve(r.URL)
		if target == "" {
			continue
		}
		switch r.Tag {
		case "script":
			pv.Subresources[crawler.InitScript]++
			res, err := b.Session.Fetch(ctx, target, pv.SiteHost, crawler.InitScript, baseURL)
			if err != nil {
				continue
			}
			b.executeScript(ctx, pv, target, res.Body, baseURL)
		case "img":
			pv.Subresources[crawler.InitImage]++
			b.Session.Fetch(ctx, target, pv.SiteHost, crawler.InitImage, baseURL)
		case "iframe":
			pv.Subresources[crawler.InitIframe]++
			res, err := b.Session.Fetch(ctx, target, pv.SiteHost, crawler.InitIframe, baseURL)
			if err != nil || depth+1 >= maxIframeDepth {
				continue
			}
			if strings.Contains(res.ContentType, "html") {
				b.loadDocument(ctx, pv, parseHTML(ctx, res.Body), res.FinalURL, depth+1)
			}
		case "link":
			pv.Subresources[crawler.InitCSS]++
			b.Session.Fetch(ctx, target, pv.SiteHost, crawler.InitCSS, baseURL)
		}
	}
	// Inline scripts execute in document order after external ones (a
	// simplification: generated pages put inline analytics last anyway).
	for _, src := range doc.InlineScripts() {
		b.runTrace(ctx, pv, "", src, baseURL)
	}
}

// executeScript runs external script content and fetches what it requests.
func (b *Browser) executeScript(ctx context.Context, pv *PageVisit, scriptURL, src, docURL string) {
	b.runTrace(ctx, pv, scriptURL, src, docURL)
}

func (b *Browser) runTrace(ctx context.Context, pv *PageVisit, scriptURL, src, docURL string) {
	var tr *jsvm.Trace
	pprof.Do(ctx, jsvmLabels, func(context.Context) {
		tr = jsvm.Execute(scriptURL, src, b.Env)
	})
	host := ""
	if scriptURL != "" {
		if u, err := url.Parse(scriptURL); err == nil {
			host = strings.ToLower(u.Hostname())
		}
	}
	pv.Traces = append(pv.Traces, ScriptTrace{URL: scriptURL, Host: host, SiteHost: pv.SiteHost, Trace: tr})
	parent := scriptURL
	if parent == "" {
		parent = docURL
	}
	baseRef, _ := url.Parse(docURL)
	for _, req := range tr.Requests {
		target := req
		if baseRef != nil {
			if u, err := url.Parse(req); err == nil {
				target = baseRef.ResolveReference(u).String()
			}
		}
		pv.Subresources[crawler.InitJS]++
		b.Session.Fetch(ctx, target, pv.SiteHost, crawler.InitJS, parent)
	}
}

// emitFlight assembles and records one flight-recorder wide event for a
// finished visit. Only called with an enabled recorder.
func (b *Browser) emitFlight(site string, ok bool, failClass string, interactive bool, wall time.Duration, spanID uint64) {
	st := b.Session.VisitStats(site)
	ev := obs.VisitEvent{
		Site:        site,
		Corpus:      b.Corpus,
		Stage:       b.Stage,
		Country:     b.Session.Country(),
		Interactive: interactive,
		OK:          ok,
		FailClass:   failClass,
		Attempts:    st.Attempts,
		Requests:    st.Requests,
		ThirdParty:  st.ThirdParty,
		Cookies:     st.Cookies,
		Bytes:       st.Bytes,
		WallMS:      float64(wall.Microseconds()) / 1000,
		SpanID:      spanID,
	}
	if b.Rank != nil {
		ev.Rank = b.Rank(site)
	}
	b.Session.Flight().RecordVisit(ev)
}

// InteractiveVisit is the Selenium-analog crawl of one site: detect the
// age gate, click through when bypassable, then locate and download the
// privacy policy. It uses the same session (a dedicated interactive
// session in the full study, to avoid instrumentation bias).
type InteractiveVisit struct {
	SiteHost string
	OK       bool
	Err      string
	// FailClass is the failure-taxonomy class when the visit failed.
	FailClass string

	GateDetected   bool
	GateBypassable bool
	GateBypassed   bool

	Banner       consent.BannerType
	HasBanner    bool
	Monetization consent.Monetization

	PolicyFound bool
	PolicyURL   string
	PolicyText  string
}

// VisitInteractive performs the interactive crawl for one site.
func (b *Browser) VisitInteractive(ctx context.Context, host string) *InteractiveVisit {
	if pb := b.Session.PageBudget(); pb > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pb)
		defer cancel()
	}
	b.met.interactive.Inc()
	iv := &InteractiveVisit{SiteHost: host}
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "visit-interactive")
	span.SetAttr("site", host)
	if b.Stage != "" {
		span.SetAttr("stage", b.Stage)
	}
	defer func() {
		span.End()
		if b.Session.Flight().Enabled() {
			b.emitFlight(iv.SiteHost, iv.OK, iv.FailClass, true, time.Since(start), span.ID())
		}
	}()
	res, _, err := b.Session.FetchPage(ctx, host, "/")
	if err != nil {
		iv.Err = err.Error()
		iv.FailClass = string(resilience.Classify(err))
		return iv
	}
	if cls := resilience.ClassifyStatus(res.Status); cls != "" {
		iv.Err = fmt.Sprintf("HTTP %d", res.Status)
		iv.FailClass = string(cls)
		return iv
	}
	iv.OK = true
	doc := parseHTML(ctx, res.Body)
	base, _ := url.Parse(res.FinalURL)

	// Age gate.
	if info, found := consent.DetectAgeGate(doc); found {
		iv.GateDetected = true
		iv.GateBypassable = info.Bypassable
		if info.Bypassable && base != nil {
			if u, err := url.Parse(info.EnterURL); err == nil {
				enterRes, err := b.Session.Fetch(ctx, base.ResolveReference(u).String(), host, crawler.InitDocument, res.FinalURL)
				if err == nil && enterRes.Status < 400 {
					// Re-load the landing page; the gate cookie is in the jar.
					if res2, _, err := b.Session.FetchPage(ctx, host, "/"); err == nil {
						doc2 := parseHTML(ctx, res2.Body)
						if _, still := consent.DetectAgeGate(doc2); !still {
							iv.GateBypassed = true
							doc = doc2
						}
					}
				}
			}
		}
	}

	// Banner and monetization signals on the (possibly post-gate) page.
	if bt, ok := consent.DetectBanner(doc); ok {
		iv.HasBanner = true
		iv.Banner = bt
	}
	iv.Monetization = consent.DetectMonetization(doc)

	// Privacy policy.
	for _, link := range consent.FindPolicyLinks(doc) {
		u, err := url.Parse(link)
		if err != nil || base == nil {
			continue
		}
		target := base.ResolveReference(u).String()
		pres, err := b.Session.Fetch(ctx, target, host, crawler.InitDocument, res.FinalURL)
		if err != nil || pres.Status >= 400 {
			continue // HTTP-error policies are the paper's 44 false positives
		}
		text := consent.ExtractPolicyText(parseHTML(ctx, pres.Body))
		if len(strings.Fields(text)) < 50 {
			continue // abnormally short: sanitized away like the paper's manual check
		}
		iv.PolicyFound = true
		iv.PolicyURL = target
		iv.PolicyText = text
		break
	}
	return iv
}
