package core

import (
	"context"
	"sync"
	"testing"

	"pornweb/internal/blocklist"
	"pornweb/internal/crawler"
	"pornweb/internal/htmlx"
	"pornweb/internal/ranking"
	"pornweb/internal/webgen"
)

// Unit tests for core helpers that do not need a live crawl.

func newBareStudy(t *testing.T) *Study {
	t.Helper()
	st, err := NewStudy(Config{Params: webgen.Params{Seed: 3, Scale: 0.01}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func TestSyncEdgeThreshold(t *testing.T) {
	st := newBareStudy(t)
	if got := st.SyncEdgeThreshold(); got != 2 {
		t.Errorf("threshold at scale 0.01 = %d, want floor 2", got)
	}
	st.Cfg.Params.Scale = 1.0
	if got := st.SyncEdgeThreshold(); got != 75 {
		t.Errorf("threshold at scale 1 = %d, want 75", got)
	}
}

func TestIsATS(t *testing.T) {
	st := newBareStudy(t)
	if !st.isATS("exosrv.com") {
		t.Error("exosrv.com should be ATS")
	}
	if !st.isATS("sub.google-analytics.com") {
		t.Error("GA subdomain should be ATS via base matching")
	}
	if st.isATS("xcvgdf.party") {
		t.Error("unindexed tracker must not be ATS (that is the point)")
	}
}

func TestTop50Ordering(t *testing.T) {
	st := newBareStudy(t)
	hosts := []string{"pornhub.com", "xvideos.com"}
	for _, s := range st.Eco.PornSites {
		if s.BaseRank > 100000 {
			hosts = append(hosts, s.Host)
		}
		if len(hosts) == 10 {
			break
		}
	}
	top := st.Top50(hosts)
	if len(top) != len(hosts) {
		t.Fatalf("Top50 len = %d", len(top))
	}
	if top[0] != "pornhub.com" {
		t.Errorf("top[0] = %q", top[0])
	}
	// Ordering must be by best measured rank.
	prev := 0
	for _, h := range top {
		b := st.Rank.StatsFor(h).Best
		if b == 0 {
			b = 1 << 30
		}
		if b < prev {
			t.Fatalf("Top50 not sorted at %s", h)
		}
		prev = b
	}
}

func TestEqualSets(t *testing.T) {
	a := map[string]bool{"x": true, "y": true}
	b := map[string]bool{"y": true, "x": true}
	if !equalSets(a, b) {
		t.Error("equal sets reported unequal")
	}
	if equalSets(a, map[string]bool{"x": true}) {
		t.Error("different sizes reported equal")
	}
	if equalSets(a, map[string]bool{"x": true, "z": true}) {
		t.Error("different members reported equal")
	}
}

func TestCoversAll(t *testing.T) {
	if !coversAll([]string{"a.com", "b.com"}, []string{"a.com", "b.com"}) {
		t.Error("full coverage rejected")
	}
	if coversAll([]string{"a.com"}, []string{"a.com", "b.com"}) {
		t.Error("partial coverage accepted")
	}
	if coversAll([]string{"a.com"}, nil) {
		t.Error("empty observation must not count as covered")
	}
}

func TestResourceTypeMapping(t *testing.T) {
	cases := map[crawler.Initiator]blocklist.ResourceType{
		crawler.InitScript:   blocklist.TypeScript,
		crawler.InitImage:    blocklist.TypeImage,
		crawler.InitIframe:   blocklist.TypeSubdocument,
		crawler.InitCSS:      blocklist.TypeStylesheet,
		crawler.InitJS:       blocklist.TypeXHR,
		crawler.InitDocument: blocklist.TypeOther,
		crawler.InitRedirect: blocklist.TypeOther,
	}
	for in, want := range cases {
		if got := resourceType(in); got != want {
			t.Errorf("resourceType(%s) = %v, want %v", in, got, want)
		}
	}
}

func TestGeoOrder(t *testing.T) {
	if geoOrder("US") >= geoOrder("UK") || geoOrder("SG") >= geoOrder("XX") {
		t.Error("geo ordering broken")
	}
}

func TestIntervalUsesMeasuredRank(t *testing.T) {
	st := newBareStudy(t)
	iv := st.interval("pornhub.com")
	if iv != ranking.IntervalTop1K {
		t.Errorf("pornhub interval = %v", iv)
	}
	if st.interval("never-ranked.example") != ranking.Interval100KUp {
		t.Error("unknown host should land in the 100k+ bucket")
	}
}

func TestReductionHelpers(t *testing.T) {
	b := BlockingResult{
		TPCookiesBaseline: 100, TPCookiesSurviving: 40,
		CanvasBaseline: 10, CanvasSurviving: 9,
		SyncBaseline: 0, SyncSurviving: 0,
	}
	if got := b.TPCookieReduction(); got != 0.6 {
		t.Errorf("TP reduction = %f", got)
	}
	if got := b.CanvasReduction(); got < 0.09 || got > 0.11 {
		t.Errorf("canvas reduction = %f", got)
	}
	if got := b.SyncReduction(); got != 0 {
		t.Errorf("zero baseline reduction = %f, want 0", got)
	}
}

func TestRTAShare(t *testing.T) {
	if (RTAResult{}).Share() != 0 {
		t.Error("empty RTA share must be 0")
	}
	if got := (RTAResult{Inspected: 10, Tagged: 2}).Share(); got != 0.2 {
		t.Errorf("share = %f", got)
	}
}

func TestBannerCountsHelpers(t *testing.T) {
	b := BannerCounts{Sites: 200, NoOption: 2, Confirmation: 5, Binary: 1}
	if b.Total() != 8 {
		t.Errorf("Total = %d", b.Total())
	}
	if b.Share(b.Total()) != 0.04 {
		t.Errorf("Share = %f", b.Share(b.Total()))
	}
	empty := BannerCounts{}
	if empty.Share(3) != 0 {
		t.Error("empty Share must be 0")
	}
}

func TestProbeCertOrgs(t *testing.T) {
	st := newBareStudy(t)
	orgs := st.ProbeCertOrgs(context.Background(), []string{
		"exosrv.com",           // HTTPS, org "ExoClick S.L."
		"google-analytics.com", // HTTPS, org "Google LLC"
		"xcvgdf.party",         // HTTP-only: no certificate
		"no-such-host.example", // unresolvable
	})
	if orgs["exosrv.com"] != "ExoClick S.L." {
		t.Errorf("exosrv org = %q", orgs["exosrv.com"])
	}
	if orgs["google-analytics.com"] != "Google LLC" {
		t.Errorf("GA org = %q", orgs["google-analytics.com"])
	}
	if _, ok := orgs["xcvgdf.party"]; ok {
		t.Error("HTTP-only host should yield no certificate")
	}
	if _, ok := orgs["no-such-host.example"]; ok {
		t.Error("unknown host should yield nothing")
	}
}

// TestTLSProbeSharedPerHost runs ProbeTLS and ProbeCertOrgs concurrently
// over the same hosts, as concurrent analysis stages do, and requires
// one handshake per host between them, then none on a repeat.
func TestTLSProbeSharedPerHost(t *testing.T) {
	st := newBareStudy(t)
	hosts := []string{"exosrv.com", "google-analytics.com", "xcvgdf.party"}
	handshakes := func() uint64 {
		return st.Metrics.Counter("webserver_tls_handshakes_total", "result", "served").Value() +
			st.Metrics.Counter("webserver_tls_handshakes_total", "result", "no_tls").Value()
	}
	before := handshakes()
	var (
		wg      sync.WaitGroup
		capable map[string]bool
		orgs    map[string]string
	)
	wg.Add(2)
	go func() { defer wg.Done(); capable = st.ProbeTLS(context.Background(), hosts) }()
	go func() { defer wg.Done(); orgs = st.ProbeCertOrgs(context.Background(), hosts) }()
	wg.Wait()
	if got := handshakes() - before; got != uint64(len(hosts)) {
		t.Errorf("%d handshakes for %d hosts probed twice, want one each", got, len(hosts))
	}
	if !capable["exosrv.com"] || !capable["google-analytics.com"] || capable["xcvgdf.party"] {
		t.Errorf("ProbeTLS = %v, want the two HTTPS hosts only", capable)
	}
	if orgs["exosrv.com"] != "ExoClick S.L." || len(orgs) != 2 {
		t.Errorf("ProbeCertOrgs = %v", orgs)
	}
	st.ProbeTLS(context.Background(), hosts)
	if got := handshakes() - before; got != uint64(len(hosts)) {
		t.Errorf("repeat probe dialled again: %d handshakes", got)
	}
}

// TestTLSProbeOutlivesCancelledCaller requires that a probe started by a
// caller whose context is already cancelled still records the host's
// real answer, since every later caller shares it.
func TestTLSProbeOutlivesCancelledCaller(t *testing.T) {
	st := newBareStudy(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st.probeHost(ctx, "exosrv.com")
	if p := st.probeHost(context.Background(), "exosrv.com"); !p.OK || p.Org != "ExoClick S.L." {
		t.Errorf("probe after a cancelled caller = %+v, want the host's certificate", p)
	}
}

func TestHeadSignatureStability(t *testing.T) {
	st := newBareStudy(t)
	var owned []*webgen.Site
	for _, s := range st.Eco.PornSites {
		if s.Owner != nil && s.Owner.Name == "MindGeek" {
			owned = append(owned, s)
		}
	}
	if len(owned) < 2 {
		t.Skip("cluster too small")
	}
	sig := func(s *webgen.Site) string {
		html := st.Eco.RenderLanding(s, webgen.PageContext{Country: "ES", Scheme: "http"})
		return parseHead(html)
	}
	if sig(owned[0]) != sig(owned[1]) {
		t.Error("same-owner head signatures differ")
	}
}

// parseHead extracts the head signature used by AnalyzeOwners.
func parseHead(html string) string {
	doc := htmlx.Parse(html)
	if head := doc.First("head"); head != nil {
		return headSignature(head)
	}
	return ""
}
