// Geo study: reproduce the Section 6 question — do pornographic websites
// behave differently depending on where the visitor connects from? Crawl
// the same site set from all six vantage points and compare reachability,
// third-party exposure and regional trackers.
//
//	go run ./examples/geostudy
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"pornweb"
	"pornweb/internal/browser"
	"pornweb/internal/crawler"
	"pornweb/internal/domain"
	"pornweb/internal/vantage"
)

func main() {
	eco := pornweb.Generate(pornweb.Params{Seed: 31, Scale: 0.03})
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
	fmt.Printf("vantage integrity check on %s: consistent=%v\n\n", check.ReferenceURL, check.Consistent)

	var targets []string
	for _, s := range eco.PornSites {
		if !s.Unresponsive && len(targets) < 40 {
			targets = append(targets, s.Host)
		}
	}

	type row struct {
		country    string
		reached    int
		thirdParty map[string]bool
	}
	rows := map[string]*row{}
	ctx := context.Background()
	for _, country := range vantage.Countries() {
		b := browser.New(sessions[country])
		r := &row{country: country, thirdParty: map[string]bool{}}
		for _, host := range targets {
			pv := b.Visit(ctx, host)
			if pv.OK {
				r.reached++
			}
		}
		for _, rec := range sessions[country].Log() {
			if rec.Status == 0 || rec.Host == "" || rec.SiteHost == "" {
				continue
			}
			if domain.Base(rec.Host) != domain.Base(rec.SiteHost) {
				r.thirdParty[rec.Host] = true
			}
		}
		rows[country] = r
	}

	seenIn := map[string]int{}
	for _, r := range rows {
		for h := range r.thirdParty {
			seenIn[h]++
		}
	}
	fmt.Printf("%-8s %10s %14s %16s\n", "country", "reached", "third-party", "country-unique")
	for _, country := range vantage.Countries() {
		r := rows[country]
		unique := 0
		var uniqueHosts []string
		for h := range r.thirdParty {
			if seenIn[h] == 1 {
				unique++
				uniqueHosts = append(uniqueHosts, h)
			}
		}
		sort.Strings(uniqueHosts)
		fmt.Printf("%-8s %10d %14d %16d\n", country, r.reached, len(r.thirdParty), unique)
		for i, h := range uniqueHosts {
			if i >= 3 {
				fmt.Printf("           ... and %d more\n", unique-3)
				break
			}
			fmt.Printf("           only here: %s\n", h)
		}
	}
}
