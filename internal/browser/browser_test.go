package browser

import (
	"context"
	"strings"
	"testing"
	"time"

	"pornweb/internal/crawler"
	"pornweb/internal/fingerprint"
	"pornweb/internal/webgen"
	"pornweb/internal/webserver"
)

type fixture struct {
	eco *webgen.Ecosystem
	srv *webserver.Server
}

func setup(t *testing.T) *fixture {
	t.Helper()
	eco := webgen.Generate(webgen.Params{Seed: 7, Scale: 0.02})
	srv, err := webserver.Start(eco)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return &fixture{eco: eco, srv: srv}
}

func (f *fixture) browser(t *testing.T, country, phase string) *Browser {
	t.Helper()
	sess, err := crawler.NewSession(crawler.Config{
		DialContext: f.srv.DialContext,
		RootCAs:     f.srv.CertPool(),
		Country:     country,
		Phase:       phase,
		Timeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	return New(sess)
}

func pick(t *testing.T, eco *webgen.Ecosystem, pred func(*webgen.Site) bool) *webgen.Site {
	t.Helper()
	for _, s := range eco.PornSites {
		if pred(s) {
			return s
		}
	}
	t.Skip("no matching site at this scale")
	return nil
}

func TestVisitLoadsSubresources(t *testing.T) {
	f := setup(t)
	b := f.browser(t, "ES", "crawl")
	site := pick(t, f.eco, func(s *webgen.Site) bool {
		return !s.Flaky && !s.Unresponsive && len(s.Services) >= 3
	})
	pv := b.Visit(context.Background(), site.Host)
	if !pv.OK {
		t.Fatalf("visit failed: %s", pv.Err)
	}
	if pv.Subresources[crawler.InitScript] == 0 {
		t.Error("no scripts loaded")
	}
	if len(pv.Traces) == 0 {
		t.Error("no script traces")
	}
	log := b.Session.Log()
	hosts := map[string]bool{}
	for _, r := range log {
		if r.SiteHost == site.Host {
			hosts[r.Host] = true
		}
	}
	for _, svc := range site.Services {
		if !hosts[svc.Host] {
			t.Errorf("embedded service %s never contacted", svc.Host)
		}
	}
}

func TestVisitExecutesTrackerScripts(t *testing.T) {
	f := setup(t)
	b := f.browser(t, "ES", "crawl")
	site := pick(t, f.eco, func(s *webgen.Site) bool {
		if s.Flaky || s.Unresponsive {
			return false
		}
		for _, svc := range s.Services {
			if svc.Category == webgen.CatAnalytics {
				return true
			}
		}
		return false
	})
	pv := b.Visit(context.Background(), site.Host)
	if !pv.OK {
		t.Fatal(pv.Err)
	}
	// Analytics scripts beacon via JS; the session log must show
	// js-initiated requests to /collect.
	var jsReqs int
	for _, r := range b.Session.Log() {
		if r.Initiator == crawler.InitJS && strings.Contains(r.URL, "/collect") {
			jsReqs++
		}
	}
	if jsReqs == 0 {
		t.Error("no JS-initiated beacon requests observed")
	}
}

func TestVisitCanvasFingerprintObservable(t *testing.T) {
	f := setup(t)
	b := f.browser(t, "ES", "crawl")
	// Visit sites embedding canvas-FP services until the fingerprinting is
	// observed through the full pipeline (some embeds deterministically
	// receive a service's benign variant, so several candidates are
	// tried).
	var candidates []*webgen.Site
	for _, s := range f.eco.PornSites {
		if s.Flaky || s.Unresponsive {
			continue
		}
		for _, svc := range s.Services {
			wide := svc.Prevalence[webgen.Porn] >= 0.05 || svc.Prevalence[webgen.Regular] >= 0.05
			if svc.CanvasFP && !wide {
				candidates = append(candidates, s)
				break
			}
		}
	}
	if len(candidates) == 0 {
		t.Skip("no canvas-FP embedding at this scale")
	}
	for _, site := range candidates {
		pv := b.Visit(context.Background(), site.Host)
		if !pv.OK {
			continue
		}
		for _, st := range pv.Traces {
			if st.Host == "" {
				continue
			}
			if v := fingerprint.ClassifyTrace(st.Trace); v.CanvasFP {
				return // observed end to end
			}
		}
	}
	t.Errorf("canvas FP not observed on any of %d candidate sites", len(candidates))
}

func TestVisitFlakySiteFails(t *testing.T) {
	f := setup(t)
	b := f.browser(t, "ES", "crawl")
	var flaky *webgen.Site
	for _, s := range f.eco.PornSites {
		if s.Flaky && !s.Unresponsive {
			flaky = s
			break
		}
	}
	if flaky == nil {
		t.Skip("no flaky site")
	}
	pv := b.Visit(context.Background(), flaky.Host)
	if pv.OK {
		t.Error("flaky site visit should fail during crawl phase")
	}
	if pv.Err == "" {
		t.Error("error not recorded")
	}
}

func TestInteractiveGateBypass(t *testing.T) {
	f := setup(t)
	b := f.browser(t, "ES", "policy")
	site := pick(t, f.eco, func(s *webgen.Site) bool {
		return s.GateFor("ES") == webgen.GateSimple && !s.Flaky && !s.Unresponsive
	})
	iv := b.VisitInteractive(context.Background(), site.Host)
	if !iv.OK {
		t.Fatal(iv.Err)
	}
	if !iv.GateDetected || !iv.GateBypassable || !iv.GateBypassed {
		t.Errorf("gate flow = %+v", iv)
	}
}

func TestInteractiveSocialGateNotBypassed(t *testing.T) {
	f := setup(t)
	b := f.browser(t, "RU", "policy")
	ph := f.eco.SiteByHost["pornhub.com"]
	if ph == nil || ph.BlockedIn["RU"] {
		t.Skip("pornhub unavailable from RU at this seed")
	}
	iv := b.VisitInteractive(context.Background(), "pornhub.com")
	if !iv.OK {
		t.Fatal(iv.Err)
	}
	if !iv.GateDetected {
		t.Fatal("social gate not detected")
	}
	if iv.GateBypassable || iv.GateBypassed {
		t.Error("social-login gate must not be bypassable")
	}
}

func TestInteractivePolicyHarvest(t *testing.T) {
	f := setup(t)
	b := f.browser(t, "ES", "policy")
	site := pick(t, f.eco, func(s *webgen.Site) bool {
		return s.HasPolicy && !s.Flaky && !s.Unresponsive && s.GateFor("ES") == webgen.GateNone
	})
	iv := b.VisitInteractive(context.Background(), site.Host)
	if !iv.OK {
		t.Fatal(iv.Err)
	}
	if !iv.PolicyFound {
		t.Fatal("policy not found")
	}
	if !strings.Contains(iv.PolicyText, "Privacy Policy") {
		t.Error("policy text not extracted")
	}
	if len(iv.PolicyText) < 500 {
		t.Errorf("policy text suspiciously short: %d chars", len(iv.PolicyText))
	}
}

func TestInteractiveNoPolicy(t *testing.T) {
	f := setup(t)
	b := f.browser(t, "ES", "policy")
	site := pick(t, f.eco, func(s *webgen.Site) bool {
		return !s.HasPolicy && !s.Flaky && !s.Unresponsive
	})
	iv := b.VisitInteractive(context.Background(), site.Host)
	if !iv.OK {
		t.Fatal(iv.Err)
	}
	if iv.PolicyFound {
		t.Errorf("phantom policy found: %q", iv.PolicyURL)
	}
}

func TestInteractivePolicyBehindGate(t *testing.T) {
	f := setup(t)
	b := f.browser(t, "ES", "policy")
	site := pick(t, f.eco, func(s *webgen.Site) bool {
		return s.HasPolicy && s.GateFor("ES") == webgen.GateSimple && !s.Flaky && !s.Unresponsive
	})
	iv := b.VisitInteractive(context.Background(), site.Host)
	if !iv.OK {
		t.Fatal(iv.Err)
	}
	if !iv.GateBypassed {
		t.Fatal("gate not bypassed")
	}
	if !iv.PolicyFound {
		t.Error("policy behind age gate not harvested")
	}
}

func TestInteractiveCookieSyncObservedAcrossSites(t *testing.T) {
	// Visiting two sites embedding the same syncing service in ONE session
	// must reuse the cookie (jar persistence), which is what makes
	// cross-site tracking measurable.
	f := setup(t)
	b := f.browser(t, "ES", "crawl")
	var sites []*webgen.Site
	for _, s := range f.eco.PornSites {
		if s.Flaky || s.Unresponsive {
			continue
		}
		if s.HasService("exosrv.com") || s.HasService("exoclick.com") {
			sites = append(sites, s)
		}
		if len(sites) == 2 {
			break
		}
	}
	if len(sites) < 2 {
		t.Skip("not enough ExoClick sites at this scale")
	}
	ctx := context.Background()
	b.Visit(ctx, sites[0].Host)
	b.Visit(ctx, sites[1].Host)
	// The exo identifier must be STABLE across both sites: refreshed with
	// the same value, never re-minted (that is what enables cross-site
	// tracking in one session).
	values := map[string]map[string]bool{} // cookie name -> distinct values
	for _, r := range b.Session.Log() {
		if strings.Contains(r.Host, "exo") {
			for _, c := range r.SetCookies {
				if strings.HasPrefix(c.Name, "uid_") {
					if values[c.Name] == nil {
						values[c.Name] = map[string]bool{}
					}
					values[c.Name][c.Value] = true
				}
			}
		}
	}
	for name, vs := range values {
		if len(vs) > 1 {
			t.Errorf("cookie %s re-minted across sites: %d distinct values", name, len(vs))
		}
	}
}
