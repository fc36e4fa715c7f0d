package core

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync"

	"pornweb/internal/browser"
	"pornweb/internal/crawler"
	"pornweb/internal/domain"
	"pornweb/internal/obs"
	"pornweb/internal/store"
)

// CrawlResult is one corpus crawled from one vantage point with the
// instrumented browser.
type CrawlResult struct {
	Country string
	// Attempted is how many hosts the crawl was asked to visit (a
	// canceled crawl may have visited fewer — see Visits).
	Attempted int
	// Visits maps site host to its page-load outcome (includes failures).
	Visits map[string]*browser.PageVisit
	// Crawled lists the hosts whose landing page loaded.
	Crawled []string
	// FailuresByClass counts failed page visits by failure-taxonomy
	// class (resilience.Class strings).
	FailuresByClass map[string]int
	// RequestFailures counts terminal request failures (every attempt
	// exhausted) by taxonomy class, summed over the visits.
	RequestFailures map[string]uint64
	// Log is the crawl's request log: visits in host order, each
	// visit's records in request order, Seq numbered across the crawl.
	// It does not depend on how concurrent visits interleaved.
	Log []crawler.Record
	// CertOrgs maps observed hosts to TLS certificate organizations.
	CertOrgs map[string]string

	// The third-party extraction rebuilds the classifier and rescans the
	// full request log; a dozen analyses consume the same result, so it is
	// computed once and cached. tpCacheHits counts the saved rescans.
	tpOnce      sync.Once
	tpBySite    map[string][]string
	allTPOnce   sync.Once
	allTP       []string
	tpCacheHits *obs.Counter
}

// Crawl performs the instrumented (OpenWPM-analog) crawl of the given
// hosts from a country. One browser session serves every visit, and
// each visited site starts from its own cookie jar.
func (st *Study) Crawl(ctx context.Context, hosts []string, country string) (*CrawlResult, error) {
	return st.CrawlStage(ctx, hosts, country, "", "")
}

// CrawlStage is Crawl with provenance: stageName names the pipeline stage
// (e.g. "crawl/porn-ES") and corpus the corpus being crawled ("porn",
// "reference"). Both label the per-visit flight events, and a non-empty
// stageName records the crawl log's record count and content digest into
// the study's provenance recorder when the crawl completes. An empty
// stageName records nothing — the library-caller behaviour of Crawl.
func (st *Study) CrawlStage(ctx context.Context, hosts []string, country, stageName, corpus string) (*CrawlResult, error) {
	ctx, span := st.Tracer.Start(ctx, "crawl/"+country)
	defer span.End()
	sr, err := st.runCrawlStage(ctx, crawlStage{name: stageName, corpus: corpus, vantage: country}, hosts)
	if err != nil {
		return nil, err
	}
	cr := &CrawlResult{
		Country:         country,
		Attempted:       len(hosts),
		Visits:          make(map[string]*browser.PageVisit, len(sr.visits)),
		FailuresByClass: map[string]int{},
		RequestFailures: sr.failures,
		Log:             sr.log,
		CertOrgs:        sr.certOrgs,
		tpCacheHits:     st.Metrics.Counter("crawl_tp_cache_hits_total", "country", country),
	}
	for h, e := range sr.visits {
		cr.Visits[h] = e.Page
		if e.Page.OK {
			cr.Crawled = append(cr.Crawled, h)
		} else if e.Page.FailClass != "" {
			cr.FailuresByClass[e.Page.FailClass]++
		}
	}
	sort.Strings(cr.Crawled)
	span.SetAttr("sites", fmt.Sprint(len(cr.Crawled)))
	span.SetAttr("requests", fmt.Sprint(len(cr.Log)))
	st.Log.Infof("crawl[%s]: %d/%d sites, %d requests", country, len(cr.Crawled), len(hosts), len(cr.Log))
	return cr, nil
}

// crawlStage names one crawl stage: the pipeline stage (empty for a
// library call, which neither persists nor records provenance), the
// corpus and vantage it crawls, and which of the two crawlers visits.
type crawlStage struct {
	name, corpus, vantage string
	interactive           bool
}

// key is the durable store key of one site's visit in this stage.
func (s crawlStage) key(site string) store.Key {
	return store.Key{Stage: s.name, Corpus: s.corpus, Vantage: s.vantage, Site: site}
}

// stageResult is one crawl stage as an uninterrupted serial run would
// have measured it, folded by foldStage from the stage's per-site
// durable entries whatever mix of replay, shard dispatch and live
// visits produced them.
type stageResult struct {
	// visits maps each visited host to its durable entry.
	visits   map[string]*visitEntry
	log      []crawler.Record
	certOrgs map[string]string
	failures map[string]uint64
}

// stageBrowser opens the session and browser one crawl stage visits
// with. The instrumented crawl runs in the "crawl" session phase, the
// interactive crawl in its own "policy" phase. The caller closes the
// session.
func (st *Study) stageBrowser(s crawlStage) (*crawler.Session, *browser.Browser, error) {
	phase := "crawl"
	if s.interactive {
		phase = "policy"
	}
	sess, err := st.session(s.vantage, phase)
	if err != nil {
		return nil, nil, err
	}
	b := browser.New(sess)
	b.Flight = st.Flight
	b.Stage = s.name
	b.Corpus = s.corpus
	b.Rank = st.Rank.BaseRank
	return sess, b, nil
}

// runCrawlStage is the one crawl-stage protocol both crawls share.
// Every visit becomes a durable entry, and one fold (foldStage) builds
// the stage from them. With a durable store, entries a previous run
// already persisted are replayed instead of refetched. A sharded study
// dispatches the rest across the worker fleet, whose workers return
// each visit as the same entry, persisted here as the bytes they sent.
// Otherwise the rest are visited in-process, each completed visit
// streaming into the store as it finishes. Because replayed, sharded
// and live entries are folded alike, in host order, resumed == sharded
// == serial by construction. A named stage then records its log digest
// and checkpoints the store.
func (st *Study) runCrawlStage(ctx context.Context, s crawlStage, hosts []string) (*stageResult, error) {
	// Refine the ambient stage label with the crawl's vantage and corpus,
	// so profile samples split by where (and over which site set) the CPU
	// went; the forEach workers below inherit the whole label set.
	prev := ctx
	ctx = pprof.WithLabels(ctx, pprof.Labels("vantage", s.vantage, "corpus", s.corpus))
	pprof.SetGoroutineLabels(ctx)
	defer pprof.SetGoroutineLabels(prev)
	sess, b, err := st.stageBrowser(s)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	pending, entries := st.hostsToVisit(s, hosts)
	if st.coord != nil && s.name != "" && len(pending) > 0 {
		raw, err := st.dispatchShards(ctx, s, pending)
		if err != nil {
			return nil, err
		}
		if err := st.foldShardEntries(s, pending, raw, entries); err != nil {
			return nil, err
		}
		pending = nil
	}
	var mu sync.Mutex
	st.forEach(ctx, len(pending), func(i int) {
		h := pending[i]
		e := s.durableEntry(ctx, b, h)
		if st.store != nil && s.name != "" {
			raw, err := json.Marshal(e)
			st.persistEntry(s.key(h), raw, err)
		}
		mu.Lock()
		entries[h] = e
		mu.Unlock()
	})
	sr := foldStage(hosts, entries)
	if s.name != "" {
		n, digest := crawlLogDigest(sr.log)
		st.prov.RecordStage(s.name, n, digest)
		// A stage boundary is a natural durability point: everything this
		// stage persisted becomes crash-proof before the next stage starts.
		st.checkpointStore()
	}
	return sr, nil
}

// classifier builds the first/third-party classifier from the crawl's
// observed certificates (keyed by base domain as the classifier expects).
func (cr *CrawlResult) classifier() *domain.Classifier {
	byBase := map[string]string{}
	for host, org := range cr.CertOrgs {
		byBase[domain.Base(host)] = org
	}
	return &domain.Classifier{CertOrg: byBase}
}

// ThirdPartyHostsBySite extracts, per successfully crawled site, the set
// of contacted third-party FQDNs (sorted).
func (cr *CrawlResult) ThirdPartyHostsBySite() map[string][]string {
	return cr.thirdPartyHostsBySite()
}

// AllThirdPartyHosts returns the global sorted set of third-party FQDNs
// observed in this crawl.
func (cr *CrawlResult) AllThirdPartyHosts() []string {
	return cr.allThirdPartyHosts()
}

// thirdPartyHostsBySite extracts, per successfully crawled site, the set of
// contacted third-party FQDNs. The first call computes and caches the map
// (every analysis after the first is a cache hit, counted in
// crawl_tp_cache_hits_total); callers share the cached value and must not
// mutate it.
func (cr *CrawlResult) thirdPartyHostsBySite() map[string][]string {
	hit := true
	cr.tpOnce.Do(func() {
		hit = false
		cr.tpBySite = cr.computeThirdPartyHostsBySite()
	})
	if hit {
		cr.tpCacheHits.Inc()
	}
	return cr.tpBySite
}

func (cr *CrawlResult) computeThirdPartyHostsBySite() map[string][]string {
	cls := cr.classifier()
	set := map[string]map[string]bool{}
	for _, h := range cr.Crawled {
		set[h] = map[string]bool{}
	}
	for _, r := range cr.Log {
		if r.SiteHost == "" || r.Host == "" || r.Host == r.SiteHost || r.Status == 0 {
			// Status 0 = transport failure: the host never answered (dead,
			// geo-blocked, or refused), so nothing was embedded from it.
			continue
		}
		sites, ok := set[r.SiteHost]
		if !ok {
			continue
		}
		if cls.Classify(r.SiteHost, r.Host) == domain.ThirdParty {
			sites[r.Host] = true
		}
	}
	out := make(map[string][]string, len(set))
	for site, hosts := range set {
		list := make([]string, 0, len(hosts))
		for h := range hosts {
			list = append(list, h)
		}
		sort.Strings(list)
		out[site] = list
	}
	return out
}

// firstPartyExtras extracts, per site, contacted first-party FQDNs other
// than the landing host itself.
func (cr *CrawlResult) firstPartyExtras() map[string][]string {
	cls := cr.classifier()
	set := map[string]map[string]bool{}
	for _, r := range cr.Log {
		if r.SiteHost == "" || r.Host == "" || r.Host == r.SiteHost || r.Status == 0 {
			continue
		}
		if cls.Classify(r.SiteHost, r.Host) == domain.FirstParty {
			if set[r.SiteHost] == nil {
				set[r.SiteHost] = map[string]bool{}
			}
			set[r.SiteHost][r.Host] = true
		}
	}
	out := make(map[string][]string, len(set))
	for site, hosts := range set {
		list := make([]string, 0, len(hosts))
		for h := range hosts {
			list = append(list, h)
		}
		sort.Strings(list)
		out[site] = list
	}
	return out
}

// allThirdPartyHosts returns the global set of third-party FQDNs, computed
// once from the per-site cache and memoized (callers must not mutate it).
func (cr *CrawlResult) allThirdPartyHosts() []string {
	cr.allTPOnce.Do(func() {
		seen := map[string]bool{}
		for _, hosts := range cr.thirdPartyHostsBySite() {
			for _, h := range hosts {
				seen[h] = true
			}
		}
		out := make([]string, 0, len(seen))
		for h := range seen {
			out = append(out, h)
		}
		sort.Strings(out)
		cr.allTP = out
	})
	return cr.allTP
}
