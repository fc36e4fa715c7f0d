// Compliance audit: reproduce the Section 7 workflow for the most popular
// sites — detect cookie-consent banners from an EU and a US vantage point,
// click through age-verification interstitials, harvest privacy policies
// and check what they disclose against the GDPR's expectations.
//
//	go run ./examples/complianceaudit
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"pornweb"
	"pornweb/internal/browser"
	"pornweb/internal/consent"
	"pornweb/internal/crawler"
)

func main() {
	eco := pornweb.Generate(pornweb.Params{Seed: 9, Scale: 0.03})
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

	// The 20 most popular crawlable porn sites.
	var targets []string
	for _, s := range eco.PornSites {
		if !s.Flaky && !s.Unresponsive && s.BaseRank <= 100000 {
			targets = append(targets, s.Host)
		}
		if len(targets) == 20 {
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

	fmt.Printf("\nsummary over %d popular sites:\n", len(targets))
	fmt.Printf("  age gates: %d (%d bypassed by the crawler)\n", gated, bypassed)
	fmt.Printf("  cookie banners: %d from the EU, %d from the US\n", bannersEU, bannersUS)
	fmt.Printf("  privacy policies: %d (%d citing the GDPR)\n", policies, gdpr)
}
