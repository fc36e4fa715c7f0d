package webgen

import (
	"fmt"
	"hash/fnv"
	"net/url"
	"strings"
	"testing"

	"pornweb/internal/blocklist"
	"pornweb/internal/jsvm"
	"pornweb/internal/lingo"
)

func testParams() Params { return Params{Seed: 7, Scale: 0.02} }

func genTest(t *testing.T) *Ecosystem {
	t.Helper()
	return Generate(testParams())
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testParams())
	b := Generate(testParams())
	if len(a.PornSites) != len(b.PornSites) || len(a.Services) != len(b.Services) {
		t.Fatal("population sizes differ across identical generations")
	}
	for i := range a.PornSites {
		x, y := a.PornSites[i], b.PornSites[i]
		if x.Host != y.Host || x.BaseRank != y.BaseRank || x.HTTPS != y.HTTPS ||
			len(x.Services) != len(y.Services) || x.PolicyText != y.PolicyText {
			t.Fatalf("site %d differs: %q vs %q", i, x.Host, y.Host)
		}
	}
}

func TestPopulationSizes(t *testing.T) {
	e := genTest(t)
	wantPorn := testParams().scaled(paperPornSites, 40)
	if len(e.PornSites) != wantPorn {
		t.Errorf("porn sites = %d, want %d", len(e.PornSites), wantPorn)
	}
	if len(e.RegularSites) == 0 || len(e.FalseCandidates) == 0 {
		t.Error("regular sites and false candidates must exist")
	}
	if len(e.Services) < 50 {
		t.Errorf("services = %d, want >= 50", len(e.Services))
	}
}

func TestHostUniqueness(t *testing.T) {
	e := genTest(t)
	seen := map[string]string{}
	add := func(h, kind string) {
		if prev, dup := seen[h]; dup {
			t.Errorf("host %q minted twice (%s and %s)", h, prev, kind)
		}
		seen[h] = kind
	}
	for _, s := range e.AllSites() {
		add(s.Host, "site")
	}
	for _, svc := range e.Services {
		add(svc.Host, "service")
	}
	for h := range e.uniqueHosts {
		add(h, "unique")
	}
}

func TestFlagshipsPlanted(t *testing.T) {
	e := genTest(t)
	ph, ok := e.SiteByHost["pornhub.com"]
	if !ok {
		t.Fatal("pornhub.com missing")
	}
	if ph.Owner == nil || ph.Owner.Name != "MindGeek" {
		t.Errorf("pornhub owner = %v", ph.Owner)
	}
	if ph.BaseRank != 22 {
		t.Errorf("pornhub rank = %d", ph.BaseRank)
	}
	if g := ph.GateFor("RU"); g != GateSocialLogin {
		t.Errorf("pornhub RU gate = %v, want social login", g)
	}
	if _, ok := e.SiteByHost["xvideos.com"]; !ok {
		t.Error("xvideos.com missing")
	}
}

func TestOwnerClustersShareNearIdenticalPolicies(t *testing.T) {
	e := genTest(t)
	byOwner := map[string][]*Site{}
	for _, s := range e.PornSites {
		if s.Owner != nil && s.HasPolicy {
			byOwner[s.Owner.Name] = append(byOwner[s.Owner.Name], s)
		}
	}
	found := false
	for owner, sites := range byOwner {
		var pair []*Site
		for _, s := range sites {
			if !s.PolicyListsAllThirdParties {
				pair = append(pair, s)
			}
		}
		if len(pair) < 2 {
			continue
		}
		found = true
		a := strings.ReplaceAll(pair[0].PolicyText, pair[0].Host, "{SITE}")
		b := strings.ReplaceAll(pair[1].PolicyText, pair[1].Host, "{SITE}")
		if a != b {
			t.Errorf("owner %s: cluster policies not template-identical", owner)
		}
	}
	if !found {
		t.Fatal("no owner cluster with >= 2 policied sites at this scale")
	}
}

func TestAdultOnlyServicesStayOffRegularSites(t *testing.T) {
	e := genTest(t)
	for _, s := range e.RegularSites {
		for _, svc := range s.Services {
			if svc.AdultOnly && svc.Prevalence[Regular] == 0 {
				t.Errorf("regular site %s embeds adult-only service %s", s.Host, svc.Host)
			}
		}
	}
	for _, s := range e.PornSites {
		for _, svc := range s.Services {
			if svc.RegularOnly {
				t.Errorf("porn site %s embeds regular-only service %s", s.Host, svc.Host)
			}
		}
	}
}

func TestExoClickPrevalence(t *testing.T) {
	e := genTest(t)
	n := 0
	for _, s := range e.PornSites {
		if s.HasService("exosrv.com") || s.HasService("exoclick.com") {
			n++
		}
	}
	frac := float64(n) / float64(len(e.PornSites))
	if frac < 0.25 || frac > 0.60 {
		t.Errorf("ExoClick union prevalence = %.2f, want ~0.40", frac)
	}
}

func TestBannerRates(t *testing.T) {
	e := Generate(Params{Seed: 11, Scale: 0.3}) // larger sample for stable rates
	var eu, us int
	for _, s := range e.PornSites {
		if s.BannerEU != BannerNone {
			eu++
		}
		if s.BannerUS != BannerNone {
			us++
		}
	}
	n := float64(len(e.PornSites))
	if f := float64(eu) / n; f < 0.025 || f > 0.065 {
		t.Errorf("EU banner rate = %.3f, want ~0.044", f)
	}
	if us > eu {
		t.Errorf("US banners (%d) must not exceed EU banners (%d)", us, eu)
	}
}

func TestRespondLanding(t *testing.T) {
	e := genTest(t)
	var site *Site
	for _, s := range e.PornSites {
		if !s.Flaky && !s.Unresponsive && s.FirstPartyCookies > 0 && len(s.Services) > 0 {
			site = s
			break
		}
	}
	if site == nil {
		t.Fatal("no suitable site")
	}
	resp := e.Respond(Request{
		Host: site.Host, Path: "/", Country: "ES", ClientIP: "127.0.0.1",
		Cookies: map[string]string{}, Phase: PhaseCrawl,
	})
	if resp.Status != 200 {
		t.Fatalf("landing status = %d", resp.Status)
	}
	if len(resp.Cookies) == 0 {
		t.Error("expected first-party Set-Cookie")
	}
	if !strings.Contains(resp.Body, "<html") {
		t.Error("body not HTML")
	}
	for _, svc := range site.Services {
		if !strings.Contains(resp.Body, svc.Host) {
			t.Errorf("landing page missing embed for %s", svc.Host)
		}
	}
}

func TestRespondFlakyByPhase(t *testing.T) {
	e := genTest(t)
	var flaky *Site
	for _, s := range e.PornSites {
		if s.Flaky && !s.Unresponsive {
			flaky = s
			break
		}
	}
	if flaky == nil {
		t.Skip("no flaky site at this scale/seed")
	}
	if r := e.Respond(Request{Host: flaky.Host, Path: "/", Country: "ES", Phase: PhaseSanitize}); r.Status != 200 {
		t.Errorf("flaky site should answer during sanitization, got %d", r.Status)
	}
	if r := e.Respond(Request{Host: flaky.Host, Path: "/", Country: "ES", Phase: PhaseCrawl}); r.Status != 0 {
		t.Errorf("flaky site should refuse during crawl, got %d", r.Status)
	}
}

func TestRespondGeoBlocking(t *testing.T) {
	e := genTest(t)
	var blocked *Site
	for _, s := range e.PornSites {
		if s.BlockedIn["IN"] && !s.Flaky && !s.Unresponsive {
			blocked = s
			break
		}
	}
	if blocked == nil {
		t.Skip("no IN-blocked site at this scale")
	}
	if r := e.Respond(Request{Host: blocked.Host, Path: "/", Country: "IN", Phase: PhaseCrawl}); r.Status != 0 {
		t.Errorf("blocked site answered from IN: %d", r.Status)
	}
	if r := e.Respond(Request{Host: blocked.Host, Path: "/", Country: "ES", Phase: PhaseCrawl}); r.Status != 200 {
		t.Errorf("blocked site should answer from ES, got %d", r.Status)
	}
}

func TestAgeGateFlow(t *testing.T) {
	e := genTest(t)
	var gated *Site
	for _, s := range e.PornSites {
		if s.GateFor("ES") == GateSimple && !s.Flaky && !s.Unresponsive {
			gated = s
			break
		}
	}
	if gated == nil {
		t.Fatal("no gated site")
	}
	r := e.Respond(Request{Host: gated.Host, Path: "/", Country: "ES", Cookies: map[string]string{}, Phase: PhasePolicy})
	if !strings.Contains(r.Body, "age-gate") {
		t.Fatal("gate not rendered")
	}
	enter := e.Respond(Request{Host: gated.Host, Path: "/enter", Query: url.Values{"to": {"/"}}, Country: "ES", Phase: PhasePolicy})
	if enter.Status != 302 || len(enter.Cookies) == 0 {
		t.Fatalf("enter = %+v", enter)
	}
	again := e.Respond(Request{Host: gated.Host, Path: "/", Country: "ES",
		Cookies: map[string]string{"age_ok": "1"}, Phase: PhasePolicy})
	if strings.Contains(again.Body, "age-gate") {
		t.Error("gate still rendered after age_ok cookie")
	}
}

func TestCookieSyncRedirect(t *testing.T) {
	e := genTest(t)
	svc := e.ServiceByHost["exosrv.com"]
	if svc == nil {
		t.Fatal("exosrv.com missing")
	}
	// Syncing fires on a hash-selected slice of (service, site) pairs;
	// scan site names until one syncs.
	var r Response
	for i := 0; i < 64; i++ {
		r = e.Respond(Request{Host: "exosrv.com", Path: "/px.gif",
			Query: url.Values{"site": {fmt.Sprintf("x%d.com", i)}}, Country: "ES", ClientIP: "127.0.0.1",
			Cookies: map[string]string{}, Phase: PhaseCrawl})
		if r.Status == 302 {
			break
		}
	}
	if r.Status != 302 {
		t.Fatalf("pixel never redirected across 64 site contexts, got %d", r.Status)
	}
	if !strings.Contains(r.Location, "puid=") || !strings.Contains(r.Location, "/sync?") {
		t.Errorf("sync location = %q", r.Location)
	}
	if len(r.Cookies) == 0 {
		t.Error("pixel should set ID cookie")
	}
	// The redirected-to UID must equal the cookie value's ID portion.
	u, err := url.Parse(r.Location)
	if err != nil {
		t.Fatal(err)
	}
	puid := u.Query().Get("puid")
	found := false
	for _, c := range r.Cookies {
		if strings.Contains(c.Value, puid) {
			found = true
		}
	}
	if !found {
		t.Error("synced uid not present in any set cookie value")
	}
}

func TestExoClickCookieEmbedsIP(t *testing.T) {
	e := genTest(t)
	r := e.Respond(Request{Host: "exosrv.com", Path: "/px.gif", Query: url.Values{},
		Country: "ES", ClientIP: "203.0.113.9", Cookies: map[string]string{}, Phase: PhaseCrawl})
	var main string
	for _, c := range r.Cookies {
		if strings.HasPrefix(c.Name, "uid_") {
			main = c.Value
		}
	}
	if main == "" {
		t.Fatal("no main cookie set")
	}
	// base64("203.0.113.9") must appear in the value.
	if !strings.Contains(main, "MjAzLjAuMTEzLjk=") {
		t.Errorf("cookie %q does not embed base64 client IP", main)
	}
}

func TestGeoCookie(t *testing.T) {
	e := genTest(t)
	r := e.Respond(Request{Host: "fling.com", Path: "/px.gif", Query: url.Values{},
		Country: "UK", ClientIP: "127.0.0.1", Cookies: map[string]string{}, Phase: PhaseCrawl})
	found := false
	for _, c := range r.Cookies {
		decoded, _ := url.QueryUnescape(c.Value)
		if strings.Contains(decoded, "lat=51.5074") {
			found = true
		}
	}
	if !found {
		t.Errorf("fling.com cookie should embed UK coordinates: %+v", r.Cookies)
	}
}

func TestServiceScriptsInterpretable(t *testing.T) {
	e := genTest(t)
	env := jsvm.Env{UserAgent: "UA", ScreenW: 1280, ScreenH: 800}
	canvasSeen, webrtcSeen, fontSeen := false, false, false
	for _, svc := range e.Services {
		src := ServiceScript(svc, 0, "uid123", "http")
		tr := jsvm.Execute("http://"+svc.Host+"/js/tag0.js", src, env)
		if len(tr.Errors) > 0 {
			t.Errorf("%s script errors: %v", svc.Host, tr.Errors)
		}
		if svc.CanvasFP && len(tr.Canvases) > 0 {
			canvasSeen = true
		}
		if svc.WebRTC && tr.WebRTC.Used() {
			webrtcSeen = true
		}
		if svc.FontFP && tr.MeasureText["mmmmmmmmmmlli"] >= 50 {
			fontSeen = true
		}
	}
	if !canvasSeen || !webrtcSeen || !fontSeen {
		t.Errorf("script kinds executed: canvas=%v webrtc=%v font=%v", canvasSeen, webrtcSeen, fontSeen)
	}
}

func TestBenignCanvasVariantExists(t *testing.T) {
	e := genTest(t)
	env := jsvm.Env{}
	for _, svc := range e.Services {
		if !svc.CanvasFP || svc.ScriptVariants <= 2 {
			continue
		}
		src := ServiceScript(svc, svc.ScriptVariants-1, "u", "http")
		tr := jsvm.Execute("", src, env)
		if len(tr.Canvases) != 1 {
			t.Fatalf("%s benign variant canvases = %d", svc.Host, len(tr.Canvases))
		}
		c := tr.Canvases[0]
		if c.Save == 0 || c.Width >= 16 {
			t.Errorf("%s benign variant should be small with save/restore", svc.Host)
		}
		return
	}
	t.Skip("no multi-variant canvas service at this scale")
}

func TestEasyListCoverage(t *testing.T) {
	e := genTest(t)
	el := blocklist.Parse("easylist", e.BuildEasyList())
	ep := blocklist.Parse("easyprivacy", e.BuildEasyPrivacy())
	merged := blocklist.Merge("both", el, ep)
	if !merged.CoversHost("exosrv.com") {
		t.Error("exosrv.com should be EasyList-covered")
	}
	if !merged.CoversHost("google-analytics.com") {
		t.Error("google-analytics.com should be EasyPrivacy-covered")
	}
	if merged.CoversHost("xcvgdf.party") {
		t.Error("xcvgdf.party must not be covered (unindexed canvas tracker)")
	}
	// Unindexed fraction of canvas services must be large (paper: 91% of
	// scripts unindexed).
	var canvasSvcs, unindexed int
	for _, svc := range e.Services {
		if svc.CanvasFP {
			canvasSvcs++
			if !merged.CoversHost(svc.Host) {
				unindexed++
			}
		}
	}
	if canvasSvcs == 0 {
		t.Fatal("no canvas services")
	}
	// At paper scale the unlisted tail dominates (91% of *scripts*
	// unindexed); at small test scales the named, mostly-listed services
	// weigh more, so assert a conservative service-level floor.
	if frac := float64(unindexed) / float64(canvasSvcs); frac < 0.3 {
		t.Errorf("unindexed canvas service fraction = %.2f, want >= 0.3", frac)
	}
}

func TestPolicyPagesServed(t *testing.T) {
	e := genTest(t)
	var withPolicy, without *Site
	for _, s := range e.PornSites {
		if s.Flaky || s.Unresponsive {
			continue
		}
		if s.HasPolicy && withPolicy == nil {
			withPolicy = s
		}
		if !s.HasPolicy && without == nil {
			without = s
		}
	}
	if withPolicy == nil || without == nil {
		t.Fatal("need both kinds of sites")
	}
	r := e.Respond(Request{Host: withPolicy.Host, Path: "/privacy", Country: "ES", Phase: PhasePolicy})
	if r.Status != 200 || !strings.Contains(r.Body, "Privacy Policy") {
		t.Errorf("policy page = %d", r.Status)
	}
	r = e.Respond(Request{Host: without.Host, Path: "/privacy", Country: "ES", Phase: PhasePolicy})
	if r.Status != 404 {
		t.Errorf("missing policy should 404, got %d", r.Status)
	}
}

func TestPolicyLengthDistribution(t *testing.T) {
	e := Generate(Params{Seed: 3, Scale: 0.2})
	var total, n, min, max int
	min = 1 << 30
	for _, s := range e.PornSites {
		if !s.HasPolicy {
			continue
		}
		l := len(s.PolicyText)
		total += l
		n++
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if n == 0 {
		t.Fatal("no policies")
	}
	mean := total / n
	if mean < 4000 || mean > 60000 {
		t.Errorf("mean policy length = %d letters, want O(10k)", mean)
	}
	if min < 500 {
		t.Errorf("min policy length = %d, implausibly short", min)
	}
}

func TestLanguageTablesComplete(t *testing.T) {
	for _, lang := range lingo.Languages {
		for name, table := range map[string]map[string][]string{
			"AgeConfirmWords": lingo.AgeConfirmWords, "AgeWarningPhrases": lingo.AgeWarningPhrases,
			"PrivacyLinkWords": lingo.PrivacyLinkWords, "CookieBannerPhrases": lingo.CookieBannerPhrases,
			"SignupWords": lingo.SignupWords, "PremiumWords": lingo.PremiumWords,
			"PaywallWords": lingo.PaywallWords, "BannerRejectWords": lingo.BannerRejectWords,
			"BannerSettingsWords": lingo.BannerSettingsWords,
		} {
			if len(table[lang]) == 0 {
				t.Errorf("%s missing language %s", name, lang)
			}
		}
	}
}

func TestUnknownHostRefused(t *testing.T) {
	e := genTest(t)
	if r := e.Respond(Request{Host: "no-such-host.example", Path: "/"}); r.Status != 0 {
		t.Errorf("unknown host status = %d, want 0", r.Status)
	}
}

func TestHTTPSCapability(t *testing.T) {
	e := genTest(t)
	anyTrue, anyFalse := false, false
	for _, s := range e.PornSites {
		if e.HTTPSCapable(s.Host) {
			anyTrue = true
		} else {
			anyFalse = true
		}
	}
	if !anyTrue || !anyFalse {
		t.Error("expected a mix of HTTPS and plain-HTTP sites")
	}
	// Popularity gradient: top-1k sites should support HTTPS far more often.
	var topY, topN, tailY, tailN int
	for _, s := range e.PornSites {
		if s.BaseRank <= 10000 {
			if s.HTTPS {
				topY++
			} else {
				topN++
			}
		} else if s.BaseRank > 100000 {
			if s.HTTPS {
				tailY++
			} else {
				tailN++
			}
		}
	}
	if topY+topN > 5 && tailY+tailN > 5 {
		topFrac := float64(topY) / float64(topY+topN)
		tailFrac := float64(tailY) / float64(tailY+tailN)
		if topFrac <= tailFrac {
			t.Errorf("HTTPS support should decay with rank: top=%.2f tail=%.2f", topFrac, tailFrac)
		}
	}
}

func TestDisconnectListIncomplete(t *testing.T) {
	e := genTest(t)
	dl := e.DisconnectList()
	if dl["google-analytics.com"] != "Alphabet" {
		t.Error("Disconnect list should know Alphabet")
	}
	if _, ok := dl["exoclick.com"]; ok {
		t.Error("Disconnect list must not know the adult-specialized ExoClick")
	}
}

func TestRankingDatasetIncludesAllSites(t *testing.T) {
	e := genTest(t)
	d := e.RankingDataset()
	if d.Len() != len(e.AllSites()) {
		t.Errorf("ranking dataset has %d hosts, want %d", d.Len(), len(e.AllSites()))
	}
	st := d.StatsFor("pornhub.com")
	if st.DaysPresent != 365 || st.Best > 1000 {
		t.Errorf("pornhub longitudinal stats off: %+v", st)
	}
}

func TestFalseCandidatesShape(t *testing.T) {
	e := genTest(t)
	var dead, keywordFP int
	for _, s := range e.FalseCandidates {
		if s.Unresponsive {
			dead++
		}
		if s.KeywordFalsePositive {
			keywordFP++
			if !s.KeywordInName {
				t.Errorf("keyword FP %s lacks keyword in name", s.Host)
			}
		}
	}
	if dead == 0 || keywordFP == 0 {
		t.Errorf("dead=%d keywordFP=%d, want both > 0", dead, keywordFP)
	}
}

func TestRegularKeywordFalsePositiveContent(t *testing.T) {
	e := genTest(t)
	for _, s := range e.FalseCandidates {
		if !s.KeywordFalsePositive {
			continue
		}
		body := e.RenderLanding(s, PageContext{Country: "ES", Scheme: "http"})
		if _, hit := lingo.ContainsAny(body, lingo.AdultContentWords); hit {
			t.Errorf("false positive %s renders adult content markers", s.Host)
		}
		return
	}
	t.Skip("no keyword FP at this scale")
}

// policyBytesDigest pins every site's policy text and rendered policy
// page for Generate(Params{Seed: 2019, Scale: 0.01}). A change to policy
// generation or to RenderPolicyPage's markup moves it; a change that only
// alters how the bytes are built must not.
const policyBytesDigest = 0x1271a1ca786b6766

func TestPolicyBytesDigest(t *testing.T) {
	e := Generate(Params{Seed: 2019, Scale: 0.01})
	h := fnv.New64a()
	for _, s := range e.AllSites() {
		fmt.Fprintf(h, "%s\x00%d:%s\x00", s.Host, len(s.PolicyText), s.PolicyText)
		page := RenderPolicyPage(s)
		fmt.Fprintf(h, "%d:%s\x00", len(page), page)
	}
	if got := h.Sum64(); got != policyBytesDigest {
		t.Errorf("policy bytes digest = %#x, want %#x", got, uint64(policyBytesDigest))
	}
}

// generatedBytesDigest pins every site's landing page (in two page
// contexts) and inline script, and every variant of every service's
// script, for Generate(Params{Seed: 2019, Scale: 0.01}). A change to the
// markup or to the per-site and per-script random draws moves it; a
// change that only alters how the RNGs are obtained must not.
const generatedBytesDigest = 0x74f81cdae9875281

func TestGeneratedBytesDigest(t *testing.T) {
	e := Generate(Params{Seed: 2019, Scale: 0.01})
	h := fnv.New64a()
	ctxs := []PageContext{
		{Country: "ES", Scheme: "http", FirstPartyUID: "fpuid0123456789"},
		{Country: "US", Scheme: "https", FirstPartyUID: "fpuid9876543210", AgeVerified: true},
	}
	for _, s := range e.AllSites() {
		for _, ctx := range ctxs {
			page := e.RenderLanding(s, ctx)
			fmt.Fprintf(h, "%s\x00%d:%s\x00", s.Host, len(page), page)
		}
		inline := InlineSiteScript(s, "fpuid0123456789", "stats.example", "https")
		fmt.Fprintf(h, "%d:%s\x00", len(inline), inline)
	}
	for _, svc := range e.Services {
		for v := 0; v <= svc.ScriptVariants; v++ {
			body := ServiceScriptFor(svc, v, "uid0123456789", "https", "site.example")
			fmt.Fprintf(h, "%s\x00%d\x00%d:%s\x00", svc.Host, v, len(body), body)
		}
	}
	if got := h.Sum64(); got != generatedBytesDigest {
		t.Errorf("generated bytes digest = %#x, want %#x", got, uint64(generatedBytesDigest))
	}
}
