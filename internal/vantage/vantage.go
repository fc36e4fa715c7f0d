// Package vantage manages the study's geographic vantage points. The paper
// crawls from a physical machine in Spain plus commercial-VPN egress in the
// USA, UK, Russia, India and Singapore (Section 3.1), after verifying that
// the VPN providers do not manipulate traffic. Here the "VPN" is a crawl
// session whose transport tags every request with its country — the
// substitution for geo-IP-visible egress — and the no-manipulation check is
// reproduced by fetching a reference resource through every vantage and
// comparing digests.
package vantage

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"pornweb/internal/crawler"
)

// Point is one vantage point.
type Point struct {
	Country  string // ISO-ish code used across the study ("ES", "US", ...)
	City     string
	Provider string // "physical" or the VPN provider name
}

// Points are the study's six vantage points. Spain is the physical machine;
// the rest alternate between the two commercial VPN providers the paper
// used.
var Points = []Point{
	{Country: "ES", City: "Madrid", Provider: "physical"},
	{Country: "US", City: "New York", Provider: "NordVPN"},
	{Country: "UK", City: "London", Provider: "NordVPN"},
	{Country: "RU", City: "Moscow", Provider: "PrivateVPN"},
	{Country: "IN", City: "Mumbai", Provider: "PrivateVPN"},
	{Country: "SG", City: "Singapore", Provider: "NordVPN"},
}

// EU reports whether the vantage country was an EU member state during the
// study (2019 — the UK still was).
func EU(country string) bool { return country == "ES" || country == "UK" }

// Countries lists the vantage country codes in study order.
func Countries() []string {
	out := make([]string, len(Points))
	for i, p := range Points {
		out[i] = p.Country
	}
	return out
}

// Sessions opens one instrumented crawl session per vantage point, sharing
// everything in base except the country. Each country keeps its own cookie
// jar — a fresh browser behind each VPN endpoint, as in the paper. The
// caller owns the sessions and must Close every one when its crawl ends.
func Sessions(base crawler.Config) (map[string]*crawler.Session, error) {
	out := make(map[string]*crawler.Session, len(Points))
	for _, p := range Points {
		cfg := base
		cfg.Country = p.Country
		s, err := crawler.NewSession(cfg)
		if err != nil {
			for _, opened := range out {
				opened.Close()
			}
			return nil, fmt.Errorf("vantage %s: %w", p.Country, err)
		}
		out[p.Country] = s
	}
	return out, nil
}

// ManipulationCheck is the result of the pre-study VPN integrity test.
type ManipulationCheck struct {
	ReferenceURL string
	Digests      map[string]string // country -> sha256 of the fetched body
	Consistent   bool
}

// VerifyNoManipulation fetches refURL through every session and compares
// body digests; any divergence means a vantage path rewrites content.
func VerifyNoManipulation(ctx context.Context, sessions map[string]*crawler.Session, refURL string) (ManipulationCheck, error) {
	check := ManipulationCheck{ReferenceURL: refURL, Digests: map[string]string{}, Consistent: true}
	countries := make([]string, 0, len(sessions))
	for c := range sessions {
		countries = append(countries, c)
	}
	sort.Strings(countries)
	var first string
	for _, c := range countries {
		res, err := sessions[c].Fetch(ctx, refURL, "", crawler.InitDocument, "")
		if err != nil {
			return check, fmt.Errorf("vantage %s: fetch %s: %w", c, refURL, err)
		}
		sum := sha256.Sum256([]byte(res.Body))
		d := hex.EncodeToString(sum[:])
		check.Digests[c] = d
		if first == "" {
			first = d
		} else if d != first {
			check.Consistent = false
		}
	}
	return check, nil
}
