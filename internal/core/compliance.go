package core

import (
	"context"
	"runtime/pprof"
	"sort"
	"sync"

	"pornweb/internal/attribution"
	"pornweb/internal/browser"
	"pornweb/internal/consent"
	"pornweb/internal/htmlx"
	"pornweb/internal/textstat"
)

// BannerCounts are per-type cookie-banner rates over the porn corpus
// (one column of Table 8).
type BannerCounts struct {
	Country      string
	Sites        int // crawled sites inspected
	NoOption     int
	Confirmation int
	Binary       int
	Other        int
}

// Total returns the number of sites with any banner.
func (b BannerCounts) Total() int {
	return b.NoOption + b.Confirmation + b.Binary + b.Other
}

// Share converts a count into a fraction of the inspected corpus.
func (b BannerCounts) Share(n int) float64 {
	if b.Sites == 0 {
		return 0
	}
	return float64(n) / float64(b.Sites)
}

// AnalyzeBanners detects and classifies cookie banners on the crawled
// landing pages of one vantage crawl (Table 8 compares ES and US).
func (st *Study) AnalyzeBanners(cr *CrawlResult) BannerCounts {
	counts := BannerCounts{Country: cr.Country, Sites: len(cr.Crawled)}
	for _, host := range cr.Crawled {
		pv := cr.Visits[host]
		if pv == nil || pv.DOM == nil {
			continue
		}
		bt, ok := consent.DetectBanner(pv.DOM)
		if !ok {
			continue
		}
		switch bt {
		case consent.BannerNoOption:
			counts.NoOption++
		case consent.BannerConfirmation:
			counts.Confirmation++
		case consent.BannerBinary:
			counts.Binary++
		case consent.BannerOther:
			counts.Other++
		}
	}
	return counts
}

// InteractiveCrawl runs the Selenium-analog over hosts from a country.
func (st *Study) InteractiveCrawl(ctx context.Context, hosts []string, country string) (map[string]*browser.InteractiveVisit, error) {
	return st.InteractiveCrawlStage(ctx, hosts, country, "")
}

// InteractiveCrawlStage is InteractiveCrawl with provenance: a non-empty
// stageName labels the per-visit flight events and records the session
// log's record count and content digest under that stage name when the
// crawl completes.
func (st *Study) InteractiveCrawlStage(ctx context.Context, hosts []string, country, stageName string) (map[string]*browser.InteractiveVisit, error) {
	// Refine the ambient stage label with the interactive crawl's vantage;
	// the forEach workers below inherit the whole label set.
	prev := ctx
	ctx = pprof.WithLabels(ctx, pprof.Labels("vantage", country, "corpus", "porn"))
	pprof.SetGoroutineLabels(ctx)
	defer pprof.SetGoroutineLabels(prev)
	sess, err := st.session(country, "policy")
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	b := browser.New(sess)
	b.Stage = stageName
	b.Corpus = "porn"
	b.Rank = st.Rank.BaseRank
	out := make(map[string]*browser.InteractiveVisit, len(hosts))
	// Replay durable interactive visits, crawl the rest, persist each
	// completed visit — the same resume protocol as CrawlStage.
	pending, replayed := st.hostsToVisit(stageName, "porn", country, hosts, true)
	// Sharded dispatch, folded back through the replay path exactly as
	// in CrawlStage.
	if st.coord != nil && stageName != "" && len(pending) > 0 {
		entries, err := st.dispatchShards(ctx, stageName, "porn", country, pending, true)
		if err != nil {
			return nil, err
		}
		replayed, err = st.foldShardEntries(stageName, "porn", country, pending, entries, replayed, true)
		if err != nil {
			return nil, err
		}
		pending = nil
	}
	var mu sync.Mutex
	st.forEach(ctx, len(pending), func(i int) {
		iv := b.VisitInteractive(ctx, pending[i])
		mu.Lock()
		out[pending[i]] = iv
		mu.Unlock()
		if st.store != nil && stageName != "" {
			st.persistVisit(storeKey(stageName, "porn", country, pending[i]),
				interactiveEntry(iv, sess, pending[i]))
		}
	})
	for _, h := range hosts {
		if e := replayed[h]; e != nil {
			out[h] = e.Interactive
		}
	}
	if stageName != "" {
		log := sess.Log()
		if len(replayed) > 0 {
			log, _, _ = mergeReplayed(hosts, replayed, log, map[string]string{}, map[string]uint64{})
		}
		n, digest := crawlLogDigest(log)
		st.prov.RecordStage(stageName, n, digest)
		st.checkpointStore()
	}
	st.Log.Infof("interactive[%s]: %d sites", country, len(hosts))
	return out, nil
}

// AgeCountry summarizes age verification for one country over the top-50
// sites (Section 7.2).
type AgeCountry struct {
	Country   string
	Inspected int
	Gated     int // sites showing a verification mechanism
	Bypassed  int // gates our crawler clicked through
	NotBypass int // gates resisting automation (social login)
}

// AgeResult is the cross-country comparison.
type AgeResult struct {
	Countries []AgeCountry
	// ConsistentUSUKES: sites gated identically in US, UK and ES.
	ConsistentUSUKES bool
	// OnlyInRU / MissingInRU count top-50 sites whose gating differs in
	// Russia.
	OnlyInRU    int
	MissingInRU int
}

// Top50 returns the 50 best-ranked crawlable porn hosts.
func (st *Study) Top50(porn []string) []string {
	type hr struct {
		host string
		best int
	}
	var ranked []hr
	for _, h := range porn {
		b := st.Rank.StatsFor(h).Best
		if b == 0 {
			b = 1 << 30
		}
		ranked = append(ranked, hr{h, b})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].best < ranked[j].best })
	n := 50
	if n > len(ranked) {
		n = len(ranked)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = ranked[i].host
	}
	return out
}

// AgeVantages lists the four vantage countries of the Section 7.2
// age-verification comparison, in the paper's order.
func AgeVantages() []string { return []string{"US", "UK", "ES", "RU"} }

// AnalyzeAgeVisits is the Section 7.2 analysis: it compares completed
// interactive crawls keyed by country (one entry per AgeVantages country,
// each over the same top-50 hosts; the pipeline runs one
// crawl/age-<country> stage per vantage).
func (st *Study) AnalyzeAgeVisits(byCountry map[string]map[string]*browser.InteractiveVisit) AgeResult {
	gatedBy := map[string]map[string]bool{}
	var res AgeResult
	for _, country := range AgeVantages() {
		visits := byCountry[country]
		ac := AgeCountry{Country: country, Inspected: len(visits)}
		gatedBy[country] = map[string]bool{}
		for host, iv := range visits {
			if !iv.OK || !iv.GateDetected {
				continue
			}
			ac.Gated++
			gatedBy[country][host] = true
			if iv.GateBypassed {
				ac.Bypassed++
			} else {
				ac.NotBypass++
			}
		}
		res.Countries = append(res.Countries, ac)
	}
	res.ConsistentUSUKES = equalSets(gatedBy["US"], gatedBy["UK"]) && equalSets(gatedBy["UK"], gatedBy["ES"])
	for h := range gatedBy["RU"] {
		if !gatedBy["ES"][h] {
			res.OnlyInRU++
		}
	}
	for h := range gatedBy["ES"] {
		if !gatedBy["RU"][h] {
			res.MissingInRU++
		}
	}
	return res
}

func equalSets(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// PolicyResult is Section 7.3.
type PolicyResult struct {
	Inspected    int
	WithPolicy   int
	PolicyShare  float64
	GDPRMentions int // policies explicitly naming the GDPR
	MeanLetters  int
	MinLetters   int
	MaxLetters   int
	// Pair-similarity stats over all collected policies.
	Pairs        int
	SimilarPairs int // similarity > 0.5
	SimilarShare float64
	// Disclosure audit of the top tracking sites (the Polisis-style deep
	// dive on 25 sites).
	TopAudited           int
	TopDisclosingCookies int
	TopListingAllParties int
}

// AnalyzePolicies evaluates the harvested policies. topTracking lists the
// most-tracking porn sites for the disclosure audit (the paper's top-25).
func (st *Study) AnalyzePolicies(visits map[string]*browser.InteractiveVisit, topTracking []string, perSiteTP map[string][]string) PolicyResult {
	var res PolicyResult
	var texts []string
	analyses := map[string]consent.PolicyAnalysis{}
	// Iterate hosts sorted: texts feeds the similarity corpus, and the
	// corpus's mean accumulates in document order — float addition must
	// not follow map iteration order.
	hosts := make([]string, 0, len(visits))
	for host := range visits {
		hosts = append(hosts, host)
	}
	sort.Strings(hosts)
	for _, host := range hosts {
		iv := visits[host]
		if !iv.OK {
			continue
		}
		res.Inspected++
		if !iv.PolicyFound {
			continue
		}
		res.WithPolicy++
		pa := consent.AnalyzePolicy(iv.PolicyText)
		analyses[host] = pa
		texts = append(texts, iv.PolicyText)
		if pa.MentionsGDPR {
			res.GDPRMentions++
		}
		if res.MinLetters == 0 || pa.Letters < res.MinLetters {
			res.MinLetters = pa.Letters
		}
		if pa.Letters > res.MaxLetters {
			res.MaxLetters = pa.Letters
		}
		res.MeanLetters += pa.Letters
	}
	if res.WithPolicy > 0 {
		res.MeanLetters /= res.WithPolicy
	}
	if res.Inspected > 0 {
		res.PolicyShare = float64(res.WithPolicy) / float64(res.Inspected)
	}
	if len(texts) >= 2 {
		corpus := textstat.NewCorpus(texts)
		stats := corpus.AllPairs(0.5)
		res.Pairs = stats.Pairs
		res.SimilarPairs = stats.AboveThreshold
		if stats.Pairs > 0 {
			res.SimilarShare = float64(stats.AboveThreshold) / float64(stats.Pairs)
		}
	}
	for _, host := range topTracking {
		pa, ok := analyses[host]
		if !ok {
			continue
		}
		res.TopAudited++
		if pa.DisclosesCookies && pa.DisclosesThirdParty {
			res.TopDisclosingCookies++
		}
		if len(pa.ListedThirdParties) > 0 && coversAll(pa.ListedThirdParties, perSiteTP[host]) {
			res.TopListingAllParties++
		}
	}
	return res
}

// coversAll reports whether the disclosed list names every observed
// third-party service host.
func coversAll(disclosed, observed []string) bool {
	set := map[string]bool{}
	for _, d := range disclosed {
		set[d] = true
	}
	for _, o := range observed {
		if !set[o] {
			return false
		}
	}
	return len(observed) > 0
}

// OwnerRow is one row of Table 1.
type OwnerRow struct {
	Company     string // disclosed controller, or "(undisclosed cluster)"
	Sites       int
	MostPopular string
	BestRank    int
}

// OwnerResult is Section 4.1.
type OwnerResult struct {
	Rows            []OwnerRow
	Clusters        int
	AttributedSites int
	// Members holds the full site membership of every discovered cluster
	// (the Rows are truncated for display); used by the ground-truth
	// validation.
	Members [][]string `json:"-"`
}

// AnalyzeOwners clusters porn sites into owner groups using policies and
// landing-page heads, then ranks clusters for Table 1.
func (st *Study) AnalyzeOwners(porn *CrawlResult, visits map[string]*browser.InteractiveVisit, topN int) OwnerResult {
	policies := map[string]string{}
	heads := map[string]string{}
	for _, host := range porn.Crawled {
		if iv := visits[host]; iv != nil && iv.PolicyFound {
			policies[host] = iv.PolicyText
		}
		if pv := porn.Visits[host]; pv != nil && pv.DOM != nil {
			if head := pv.DOM.First("head"); head != nil {
				heads[host] = headSignature(head)
			}
		}
	}
	// Coefficient-1 matching only: the paper found owners through
	// identical policy pairs — merely template-sharing policies (76% of
	// all pairs exceed 0.5) must not merge. A threshold >= 0.999 selects
	// DiscoverOwners' exact-identity grouping.
	clusters := attribution.DiscoverOwners(porn.Crawled, policies, heads, 1.0)
	var res OwnerResult
	res.Clusters = len(clusters)
	for _, c := range clusters {
		res.AttributedSites += len(c.Sites)
		res.Members = append(res.Members, c.Sites)
		row := OwnerRow{Company: c.Company, Sites: len(c.Sites)}
		if row.Company == "" {
			row.Company = "(undisclosed cluster)"
		}
		best := 1 << 30
		for _, h := range c.Sites {
			b := st.Rank.StatsFor(h).Best
			if b > 0 && b < best {
				best = b
				row.MostPopular = h
				row.BestRank = b
			}
		}
		if row.MostPopular == "" {
			row.MostPopular = c.Sites[0]
		}
		res.Rows = append(res.Rows, row)
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		if res.Rows[i].Sites != res.Rows[j].Sites {
			return res.Rows[i].Sites > res.Rows[j].Sites
		}
		return res.Rows[i].Company < res.Rows[j].Company
	})
	if topN > 0 && len(res.Rows) > topN {
		res.Rows = res.Rows[:topN]
	}
	return res
}

// headSignature extracts the owner-revealing parts of a <head>: the meta
// names/contents (platform generator, theme), which cluster sites sharing
// an operator.
func headSignature(head *htmlx.Node) string {
	var sig []string
	for _, m := range head.ElementsByTag("meta") {
		name := m.Attr("name")
		if name == "description" {
			continue // content-derived, not operator-derived
		}
		sig = append(sig, name+" "+m.Attr("content"))
	}
	sort.Strings(sig)
	out := ""
	for _, s := range sig {
		out += s + " "
	}
	return out
}

// MonetizationResult is Section 4.1's business-model classification.
type MonetizationResult struct {
	Inspected     int
	Subscriptions int // sites offering account/premium signup
	Paid          int // of those, behind a payment wall
}

// AnalyzeMonetization classifies landing pages.
func (st *Study) AnalyzeMonetization(porn *CrawlResult) MonetizationResult {
	var res MonetizationResult
	for _, host := range porn.Crawled {
		pv := porn.Visits[host]
		if pv == nil || pv.DOM == nil {
			continue
		}
		res.Inspected++
		m := consent.DetectMonetization(pv.DOM)
		if m.HasAccounts || m.HasPremium {
			res.Subscriptions++
			if m.Paid {
				res.Paid++
			}
		}
	}
	return res
}

// TopTrackingSites ranks porn sites by observed tracking intensity
// (ID cookies received + fingerprinting scripts), for the policy audit.
func (st *Study) TopTrackingSites(porn *CrawlResult, n int) []string {
	score := map[string]int{}
	for _, r := range porn.Log {
		for _, c := range r.SetCookies {
			if !c.Session && len(c.Value) >= 6 {
				score[r.SiteHost]++
			}
		}
	}
	for _, pv := range porn.Visits {
		for _, tr := range pv.Traces {
			if len(tr.Trace.Canvases) > 0 {
				score[tr.SiteHost] += 5
			}
		}
	}
	type hs struct {
		host string
		s    int
	}
	var ranked []hs
	for h, s := range score {
		ranked = append(ranked, hs{h, s})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].s != ranked[j].s {
			return ranked[i].s > ranked[j].s
		}
		return ranked[i].host < ranked[j].host
	})
	if n > len(ranked) {
		n = len(ranked)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = ranked[i].host
	}
	return out
}
