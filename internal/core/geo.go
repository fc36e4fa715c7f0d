package core

import (
	"sort"

	"pornweb/internal/domain"
	"pornweb/internal/malware"
)

// GeoRow is one row of Table 7: third-party observations from one vantage
// country.
type GeoRow struct {
	Country string
	// FQDNs is the number of distinct third-party FQDNs observed.
	FQDNs int
	// WebEcosystemShare is the fraction of those also present in the
	// regular-web crawl.
	WebEcosystemShare float64
	// UniqueCountry counts FQDNs observed only from this country.
	UniqueCountry int
	// ATS counts blocklist-covered third-party FQDNs.
	ATS int
	// UniqueATS counts ATS FQDNs observed only from this country.
	UniqueATS int
	// Unreachable counts porn sites reachable from the physical vantage
	// (Spain) but not from here — censorship or server-side blocking,
	// indistinguishable as the paper notes (21 for Russia, 168 for India).
	Unreachable int
}

// GeoResult is Section 6.
type GeoResult struct {
	Rows []GeoRow
	// Totals across all countries.
	TotalFQDNs int
	TotalATS   int
	// UniqueToSomeCountry counts FQDNs seen from exactly one country.
	UniqueToSomeCountry int

	// Malware geography (Section 6.2).
	FlaggedByCountry      map[string]int // country -> flagged third-party domains
	SitesWithMalByCountry map[string]int
	AlwaysFlagged         int // flagged domains present from every country
	AlwaysMalSites        int // sites with malicious content from every country
}

// AnalyzeGeoFrom is the Section 6 analysis: it compares already-completed
// vantage crawls. crawls must contain every country in Cfg.Countries.
// regularTP is the regular-web third-party set (from the main crawl) for
// the "web ecosystem" column.
func (st *Study) AnalyzeGeoFrom(regularTP map[string]bool, crawls map[string]*CrawlResult) GeoResult {
	var res GeoResult
	countries := st.Cfg.Countries

	tpByCountry := map[string]map[string]bool{}
	for _, c := range countries {
		set := map[string]bool{}
		for _, h := range crawls[c].allThirdPartyHosts() {
			set[h] = true
		}
		tpByCountry[c] = set
	}
	seenIn := map[string]int{}
	for _, set := range tpByCountry {
		for h := range set {
			seenIn[h]++
		}
	}
	allATS := map[string]bool{}
	for h := range seenIn {
		res.TotalFQDNs++
		if st.isATS(h) {
			allATS[h] = true
		}
		if seenIn[h] == 1 {
			res.UniqueToSomeCountry++
		}
	}
	res.TotalATS = len(allATS)

	agg := st.malwareOracle()
	res.FlaggedByCountry = map[string]int{}
	res.SitesWithMalByCountry = map[string]int{}
	flaggedIn := map[string]int{} // flagged domain -> #countries observed
	malSiteIn := map[string]int{} // site with malicious embed -> #countries

	for _, c := range countries {
		row := GeoRow{Country: c}
		set := tpByCountry[c]
		row.FQDNs = len(set)
		var inWeb int
		for h := range set {
			if regularTP[h] {
				inWeb++
			}
			if seenIn[h] == 1 {
				row.UniqueCountry++
			}
			if st.isATS(h) {
				row.ATS++
				if seenIn[h] == 1 {
					row.UniqueATS++
				}
			}
		}
		if row.FQDNs > 0 {
			row.WebEcosystemShare = float64(inWeb) / float64(row.FQDNs)
		}
		if base, ok := crawls["ES"]; ok {
			row.Unreachable = len(base.Crawled) - len(crawls[c].Crawled)
			if row.Unreachable < 0 {
				row.Unreachable = 0
			}
		}

		// Malware per country.
		flagged := map[string]bool{}
		malSites := map[string]bool{}
		for site, hosts := range crawls[c].thirdPartyHostsBySite() {
			for _, h := range hosts {
				base := domain.Base(h)
				if agg.Flagged(base) || malware.IsCryptoMiner(h) {
					flagged[base] = true
					malSites[site] = true
				}
			}
		}
		res.FlaggedByCountry[c] = len(flagged)
		res.SitesWithMalByCountry[c] = len(malSites)
		for d := range flagged {
			flaggedIn[d]++
		}
		for s := range malSites {
			malSiteIn[s]++
		}
		res.Rows = append(res.Rows, row)
	}
	for _, n := range flaggedIn {
		if n == len(countries) {
			res.AlwaysFlagged++
		}
	}
	for _, n := range malSiteIn {
		if n == len(countries) {
			res.AlwaysMalSites++
		}
	}
	sort.Slice(res.Rows, func(i, j int) bool { return geoLess(res.Rows[i].Country, res.Rows[j].Country) })
	return res
}

// geoOrder sorts countries in the paper's Table 7 order.
func geoOrder(c string) int {
	order := map[string]int{"US": 0, "UK": 1, "ES": 2, "RU": 3, "IN": 4, "SG": 5}
	if o, ok := order[c]; ok {
		return o
	}
	return 99
}

// geoLess orders countries for Table 7 and the robustness rows: the
// paper's six vantages in its printed order, then every other country
// alphabetically. The name tie-break matters because geoOrder maps all
// non-paper countries to the same rank and sort.Slice is unstable — with
// a custom country list the row order would otherwise vary run to run.
func geoLess(a, b string) bool {
	oa, ob := geoOrder(a), geoOrder(b)
	if oa != ob {
		return oa < ob
	}
	return a < b
}
