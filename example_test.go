package pornweb_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"pornweb"
	"pornweb/internal/browser"
	"pornweb/internal/consent"
	"pornweb/internal/cookies"
	"pornweb/internal/crawler"
	"pornweb/internal/domain"
	"pornweb/internal/fingerprint"
	"pornweb/internal/report"
	"pornweb/internal/vantage"
)

// Generate a small synthetic porn-web ecosystem, run the full IMC'19
// measurement study against it, and print the headline findings and the
// three comparison tables the paper leads with.
func Example_quickstart() {
	st, err := pornweb.NewStudy(pornweb.StudyConfig{
		Params: pornweb.Params{Seed: 42, Scale: 0.01},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	res, err := st.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("porn corpus: %d sites, reference corpus: %d sites\n",
		len(res.Corpus.Porn), len(res.Corpus.Reference))
	fmt.Printf("sites with third-party ID cookies: %.0f%%  (paper: 72%%)\n",
		100*res.CookieCensus.SitesWithTPIDFrac)
	fmt.Printf("sites loading canvas fingerprinting: %.1f%%  (paper: ~5%%)\n",
		100*res.Fingerprinting.CanvasSiteShare)
	fmt.Printf("canvas scripts invisible to EasyList/EasyPrivacy: %.0f%%  (paper: 91%%)\n",
		100*res.Fingerprinting.UnlistedCanvasShare)
	fmt.Printf("sites with an accessible privacy policy: %.0f%%  (paper: 16%%)\n",
		100*res.Policies.PolicyShare)
	fmt.Printf("sites with a cookie banner (EU vantage): %.1f%%  (paper: 4.4%%)\n",
		100*res.Table8ES.Share(res.Table8ES.Total()))

	report.Table2(os.Stdout, res.Table2)
	report.Table4(os.Stdout, res.Table4, 5)
	report.Table8(os.Stdout, res.Table8ES, res.Table8US)
	// Output:
	// porn corpus: 68 sites, reference corpus: 97 sites
	// sites with third-party ID cookies: 72%  (paper: 72%)
	// sites loading canvas fingerprinting: 10.8%  (paper: ~5%)
	// canvas scripts invisible to EasyList/EasyPrivacy: 83%  (paper: 91%)
	// sites with an accessible privacy policy: 52%  (paper: 16%)
	// sites with a cookie banner (EU vantage): 3.1%  (paper: 4.4%)
	//
	// Table 2 — First/third-party domains, porn vs regular websites
	// ---------------------------------------------------------------
	// Domain category              Porn (P)    Regular (R)      |P ∩ R|
	// Corpus size                        65             88            —
	// First-party                        11             61            —
	// Third-party                        87            214           11
	// Third-party ATS                    17             11            9
	//
	// Table 4 — Third-party domains delivering potential-ID cookies
	// ---------------------------------------------------------------
	// Third-party domain              % sites  #cookies   ATS   in web    % with IP
	// google-analytics.com              43.1%       112     ✓        ✓         0.0%
	// addthis.com                       20.0%        26     ✓        ✓         0.0%
	// exosrv.com                        20.0%       104     ✓        -        50.0%
	// doubleclick.net                   18.5%        96     ✓        ✓         0.0%
	// exoclick.com                      13.8%        36     ✓        -       100.0%
	//
	// Table 8 — Cookie banner usage (Degeling taxonomy)
	// ---------------------------------------------------
	// Type                   EU        USA
	// No Option           1.54%      1.54%
	// Confirmation        1.54%      1.54%
	// Binary              0.00%      0.00%
	// Others              0.00%      0.00%
	// Total               3.08%      3.08%   (N = 65)
}

// Deep-dive a handful of sites the way Section 5 of the paper does: load
// each landing page with the instrumented browser, then report which
// scripts fingerprint the canvas, which identifier cookies embed the
// client IP, and which cookie values were synchronized between
// organizations.
func Example_trackingAudit() {
	eco := pornweb.Generate(pornweb.Params{Seed: 77, Scale: 0.01})
	srv, err := pornweb.Serve(eco)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	sess, err := crawler.NewSession(crawler.Config{
		DialContext: srv.DialContext,
		RootCAs:     srv.CertPool(),
		Country:     "ES",
		Timeout:     15 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	b := browser.New(sess)

	// Audit up to five crawlable sites embedding at least five services.
	var targets []*pornweb.Site
	for _, s := range eco.PornSites {
		if !s.Flaky && !s.Unresponsive && len(s.Services) >= 5 {
			targets = append(targets, s)
		}
		if len(targets) == 5 {
			break
		}
	}

	ctx := context.Background()
	for _, site := range targets {
		pv := b.Visit(ctx, site.Host)
		if !pv.OK {
			fmt.Printf("%s: unreachable (%s)\n", site.Host, pv.Err)
			continue
		}
		fmt.Printf("=== %s (https=%v) ===\n", site.Host, pv.HTTPS)
		for _, tr := range pv.Traces {
			v := fingerprint.ClassifyTrace(tr.Trace)
			if !v.Any() {
				continue
			}
			src := tr.URL
			if src == "" {
				src = "(inline first-party script)"
			}
			fmt.Printf("  fingerprinting: %s\n", src)
			for _, reason := range v.Reasons {
				fmt.Printf("      %s\n", reason)
			}
		}
	}

	// Session-wide cookie analysis (one browser session, like the paper).
	log0 := sess.Log()
	obs := cookies.Collect(log0, nil)
	var idCookies, withIP int
	printed := map[string]bool{}
	for _, o := range obs {
		if !o.IsIDCandidate() {
			continue
		}
		idCookies++
		if cookies.DecodeValue(o.Value, "127.0.0.1").HasClientIP {
			withIP++
			line := fmt.Sprintf("IP-embedding cookie: %s from %s (on %s)", o.Name, o.Host, o.SiteHost)
			if !printed[line] {
				printed[line] = true
				fmt.Println(line)
			}
		}
	}
	fmt.Printf("session totals: %d cookie observations, %d potential identifiers, %d embedding the client IP\n",
		len(obs), idCookies, withIP)

	events := cookies.DetectSyncs(log0)
	g := cookies.BuildGraph(events)
	fmt.Printf("cookie syncing: %d exchanges across %d domain pairs (%d origins -> %d destinations)\n",
		len(events), len(g.Pairs), len(g.Origins), len(g.Dests))
	for _, e := range g.EdgesWithAtLeast(2) {
		fmt.Printf("  %-26s -> %-26s x%d\n", e.Origin, e.Dest, e.Count)
	}
	// Output:
	// === beeg.com (https=false) ===
	//   fingerprinting: http://xcvgdf.party/js/tag1.js?site=beeg.com
	//       canvas[0]: 308x186 canvas, 2 colors, 29 distinct chars, readback
	// === neontubegarden.com (https=false) ===
	// === silkporn.biz (https=true) ===
	// IP-embedding cookie: uid_cfd9 from exosrv.com (on beeg.com)
	// IP-embedding cookie: uid_cfd9 from exosrv.com (on neontubegarden.com)
	// IP-embedding cookie: uid_84a0 from exoclick.com (on neontubegarden.com)
	// IP-embedding cookie: uid_cfd9 from exosrv.com (on silkporn.biz)
	// session totals: 107 cookie observations, 72 potential identifiers, 16 embedding the client IP
	// cookie syncing: 6 exchanges across 2 domain pairs (2 origins -> 2 destinations)
	//   exosrv.com                 -> tsyndicate.com             x3
	//   tsyndicate.com             -> adnium.com                 x3
}

// Reproduce the Section 7 audit for the most popular sites: detect
// cookie-consent banners from an EU and a US vantage point, click
// through age-verification interstitials, harvest privacy policies and
// check what they disclose against the GDPR's expectations.
func Example_complianceAudit() {
	eco := pornweb.Generate(pornweb.Params{Seed: 9, Scale: 0.01})
	srv, err := pornweb.Serve(eco)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	mkBrowser := func(country string) *browser.Browser {
		sess, err := crawler.NewSession(crawler.Config{
			DialContext: srv.DialContext,
			RootCAs:     srv.CertPool(),
			Country:     country,
			Phase:       "policy",
			Timeout:     15 * time.Second,
		})
		if err != nil {
			log.Fatal(err)
		}
		return browser.New(sess)
	}
	eu, us := mkBrowser("ES"), mkBrowser("US")
	defer eu.Session.Close()
	defer us.Session.Close()

	// The ten most popular crawlable porn sites.
	var targets []string
	for _, s := range eco.PornSites {
		if !s.Flaky && !s.Unresponsive && s.BaseRank <= 100000 {
			targets = append(targets, s.Host)
		}
		if len(targets) == 10 {
			break
		}
	}

	ctx := context.Background()
	var gated, bypassed, policies, gdpr, bannersEU, bannersUS int
	for _, host := range targets {
		ivEU := eu.VisitInteractive(ctx, host)
		ivUS := us.VisitInteractive(ctx, host)
		if !ivEU.OK {
			fmt.Printf("%-28s unreachable\n", host)
			continue
		}
		status := "no gate"
		if ivEU.GateDetected {
			gated++
			if ivEU.GateBypassed {
				bypassed++
				status = "gate bypassed (a child could too)"
			} else {
				status = "gate resists automation"
			}
		}
		banner := "no banner"
		if ivEU.HasBanner {
			bannersEU++
			banner = "EU banner: " + ivEU.Banner.String()
		}
		if ivUS.OK && ivUS.HasBanner {
			bannersUS++
		}
		policy := "no policy"
		if ivEU.PolicyFound {
			policies++
			pa := consent.AnalyzePolicy(ivEU.PolicyText)
			policy = fmt.Sprintf("policy %d letters", pa.Letters)
			if pa.MentionsGDPR {
				gdpr++
				policy += ", cites GDPR"
			}
			if !pa.DisclosesThirdParty {
				policy += ", silent on third parties"
			}
		}
		fmt.Printf("%-28s %-34s %-28s %s\n", host, status, banner, policy)
	}

	fmt.Printf("summary over %d popular sites:\n", len(targets))
	fmt.Printf("  age gates: %d (%d bypassed by the crawler)\n", gated, bypassed)
	fmt.Printf("  cookie banners: %d from the EU, %d from the US\n", bannersEU, bannersUS)
	fmt.Printf("  privacy policies: %d (%d citing the GDPR)\n", policies, gdpr)
	// Output:
	// evilangel.com                no gate                            no banner                    policy 7101 letters, cites GDPR
	// pornhub.com                  no gate                            no banner                    policy 15217 letters
	// teamskeet.com                no gate                            no banner                    policy 8270 letters
	// porn300.com                  no gate                            no banner                    policy 14138 letters
	// private.com                  gate bypassed (a child could too)  no banner                    policy 14355 letters
	// livejasmin.com               gate bypassed (a child could too)  no banner                    policy 10411 letters
	// matureclips.org              no gate                            EU banner: Confirmation      policy 10415 letters
	// mature.nl                    no gate                            no banner                    policy 10759 letters
	// corbinfisher.com             gate bypassed (a child could too)  no banner                    policy 5384 letters
	// xvideos.com                  no gate                            no banner                    policy 10171 letters, cites GDPR
	// summary over 10 popular sites:
	//   age gates: 3 (3 bypassed by the crawler)
	//   cookie banners: 1 from the EU, 1 from the US
	//   privacy policies: 10 (2 citing the GDPR)
}

// Ask the Section 6 question: do pornographic websites behave
// differently depending on where the visitor connects from? Crawl the
// same site set from all six vantage points and compare reachability,
// third-party exposure and regional trackers.
func Example_geoStudy() {
	eco := pornweb.Generate(pornweb.Params{Seed: 31, Scale: 0.01})
	srv, err := pornweb.Serve(eco)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	sessions, err := vantage.Sessions(crawler.Config{
		DialContext: srv.DialContext,
		RootCAs:     srv.CertPool(),
		Timeout:     15 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range sessions {
		defer s.Close()
	}

	// Pre-flight: verify no vantage path rewrites content (the paper's
	// VPN-integrity check).
	check, err := vantage.VerifyNoManipulation(context.Background(), sessions, "http://gstatic.com/css/lib.css")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vantage integrity check on %s: consistent=%v\n", check.ReferenceURL, check.Consistent)

	var targets []string
	for _, s := range eco.PornSites {
		if !s.Unresponsive && len(targets) < 20 {
			targets = append(targets, s.Host)
		}
	}

	thirdParty := map[string]map[string]bool{} // country -> third-party hosts
	reached := map[string]int{}
	ctx := context.Background()
	for _, country := range vantage.Countries() {
		b := browser.New(sessions[country])
		for _, host := range targets {
			if b.Visit(ctx, host).OK {
				reached[country]++
			}
		}
		thirdParty[country] = map[string]bool{}
		for _, rec := range sessions[country].Log() {
			if rec.Status == 0 || rec.Host == "" || rec.SiteHost == "" {
				continue
			}
			if domain.Base(rec.Host) != domain.Base(rec.SiteHost) {
				thirdParty[country][rec.Host] = true
			}
		}
	}

	seenIn := map[string]int{}
	for _, hosts := range thirdParty {
		for h := range hosts {
			seenIn[h]++
		}
	}
	fmt.Printf("%-8s %10s %14s %16s\n", "country", "reached", "third-party", "country-unique")
	for _, country := range vantage.Countries() {
		var unique []string
		for h := range thirdParty[country] {
			if seenIn[h] == 1 {
				unique = append(unique, h)
			}
		}
		sort.Strings(unique)
		fmt.Printf("%-8s %10d %14d %16d\n", country, reached[country], len(thirdParty[country]), len(unique))
		for i, h := range unique {
			if i == 3 {
				fmt.Printf("           ... and %d more\n", len(unique)-3)
				break
			}
			fmt.Printf("           only here: %s\n", h)
		}
	}
	// Output:
	// vantage integrity check on http://gstatic.com/css/lib.css: consistent=true
	// country     reached    third-party   country-unique
	// ES               20             48                3
	//            only here: edge-es-013.ad.com
	//            only here: edge-es-212.metrics.top
	//            only here: edge-es-596.ads.me
	// US               20             48                3
	//            only here: edge-us-114.metrics.top
	//            only here: edge-us-636.ad.com
	//            only here: edge-us-873.ads.me
	// UK               20             48                3
	//            only here: edge-uk-131.ads.me
	//            only here: edge-uk-617.metrics.top
	//            only here: edge-uk-751.ad.com
	// RU               20             42                3
	//            only here: edge-ru-293.metrics.top
	//            only here: edge-ru-449.ads.me
	//            only here: edge-ru-660.ad.com
	// IN               19             45                3
	//            only here: edge-in-057.ads.me
	//            only here: edge-in-585.ad.com
	//            only here: edge-in-618.metrics.top
	// SG               20             48                3
	//            only here: edge-sg-114.ad.com
	//            only here: edge-sg-117.metrics.top
	//            only here: edge-sg-327.ads.me
}
