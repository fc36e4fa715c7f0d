package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync"

	"pornweb/internal/browser"
	"pornweb/internal/crawler"
	"pornweb/internal/domain"
	"pornweb/internal/obs"
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
	// exhausted) by taxonomy class, from the session's counters.
	RequestFailures map[string]uint64
	// Log is the session's full request log.
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
// hosts from a country. One browser session is shared across all visits,
// as in the paper, so cookie state persists between sites.
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
	// Refine the ambient stage label with the crawl's vantage and corpus,
	// so profile samples split by where (and over which site set) the CPU
	// went; the forEach workers below inherit the whole label set.
	prev := ctx
	ctx = pprof.WithLabels(ctx, pprof.Labels("vantage", country, "corpus", corpus))
	pprof.SetGoroutineLabels(ctx)
	defer pprof.SetGoroutineLabels(prev)
	sess, err := st.session(country, "crawl")
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	b := browser.New(sess)
	b.Stage = stageName
	b.Corpus = corpus
	b.Rank = st.Rank.BaseRank
	cr := &CrawlResult{
		Country:         country,
		Attempted:       len(hosts),
		Visits:          make(map[string]*browser.PageVisit, len(hosts)),
		FailuresByClass: map[string]int{},
		tpCacheHits:     st.Metrics.Counter("crawl_tp_cache_hits_total", "country", country),
	}
	// With a durable store, visits a previous run already persisted are
	// replayed instead of refetched; only the rest are crawled, and each
	// completed visit streams into the store as it finishes.
	pending, replayed := st.hostsToVisit(stageName, corpus, country, hosts, false)
	// A sharded study dispatches the pending visits across the worker
	// fleet and folds the merged entries back in through the same
	// replay path a resumed run uses — machinery the crash-safety gate
	// already holds to byte-identity, which is why sharded == serial.
	if st.coord != nil && stageName != "" && len(pending) > 0 {
		entries, err := st.dispatchShards(ctx, stageName, corpus, country, pending, false)
		if err != nil {
			return nil, err
		}
		replayed, err = st.foldShardEntries(stageName, corpus, country, pending, entries, replayed, false)
		if err != nil {
			return nil, err
		}
		pending = nil
	}
	var mu sync.Mutex
	st.forEach(ctx, len(pending), func(i int) {
		pv := b.Visit(ctx, pending[i])
		mu.Lock()
		cr.Visits[pending[i]] = pv
		mu.Unlock()
		if st.store != nil && stageName != "" {
			st.persistVisit(storeKey(stageName, corpus, country, pending[i]),
				pageEntry(pv, sess, pending[i]))
		}
	})
	for _, h := range hosts {
		if e := replayed[h]; e != nil {
			cr.Visits[h] = e.Page
		}
	}
	for h, pv := range cr.Visits {
		if pv.OK {
			cr.Crawled = append(cr.Crawled, h)
		} else if pv.FailClass != "" {
			cr.FailuresByClass[pv.FailClass]++
		}
	}
	sort.Strings(cr.Crawled)
	cr.Log = sess.Log()
	cr.CertOrgs = sess.CertOrgs()
	cr.RequestFailures = sess.FailureCounts()
	if len(replayed) > 0 {
		cr.Log, cr.CertOrgs, cr.RequestFailures =
			mergeReplayed(hosts, replayed, cr.Log, cr.CertOrgs, cr.RequestFailures)
	}
	span.SetAttr("sites", fmt.Sprint(len(cr.Crawled)))
	span.SetAttr("requests", fmt.Sprint(len(cr.Log)))
	if stageName != "" {
		n, digest := crawlLogDigest(cr.Log)
		st.prov.RecordStage(stageName, n, digest)
		// A stage boundary is a natural durability point: everything this
		// stage persisted becomes crash-proof before the next stage starts.
		st.checkpointStore()
	}
	st.Log.Infof("crawl[%s]: %d/%d sites, %d requests", country, len(cr.Crawled), len(hosts), len(cr.Log))
	return cr, nil
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
