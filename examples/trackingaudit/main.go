// Tracking audit: deep-dive a handful of sites the way Section 5 of the
// paper does — load each landing page with the instrumented browser, then
// report exactly which trackers set identifier cookies, which cookies
// embed the client IP, which scripts fingerprint the canvas, and which
// cookie values were synchronized to other organizations.
//
//	go run ./examples/trackingaudit
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"pornweb"
	"pornweb/internal/browser"
	"pornweb/internal/cookies"
	"pornweb/internal/crawler"
	"pornweb/internal/fingerprint"
)

func main() {
	eco := pornweb.Generate(pornweb.Params{Seed: 77, Scale: 0.03})
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

	// Audit the five most tracker-laden crawlable sites.
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
		fmt.Printf("\n=== %s (https=%v) ===\n", site.Host, pv.HTTPS)
		for _, tr := range pv.Traces {
			v := fingerprint.ClassifyTrace(tr.Trace)
			if v.Any() {
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
	}

	// Session-wide cookie analysis (one browser session, like the paper).
	log0 := sess.Log()
	obs := cookies.Collect(log0, nil)
	var idCookies, withIP int
	for _, o := range obs {
		if !o.IsIDCandidate() {
			continue
		}
		idCookies++
		if cookies.DecodeValue(o.Value, "127.0.0.1").HasClientIP {
			withIP++
			fmt.Printf("\nIP-embedding cookie: %s from %s (on %s)\n", o.Name, o.Host, o.SiteHost)
		}
	}
	fmt.Printf("\nsession totals: %d cookie observations, %d potential identifiers, %d embedding the client IP\n",
		len(obs), idCookies, withIP)

	events := cookies.DetectSyncs(log0)
	g := cookies.BuildGraph(events)
	fmt.Printf("cookie syncing: %d exchanges across %d domain pairs (%d origins -> %d destinations)\n",
		len(events), len(g.Pairs), len(g.Origins), len(g.Dests))
	for _, e := range g.EdgesWithAtLeast(2) {
		fmt.Printf("  %-26s -> %-26s x%d\n", e.Origin, e.Dest, e.Count)
	}
}
