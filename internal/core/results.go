package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pornweb/internal/browser"
	"pornweb/internal/obs"
	"pornweb/internal/sched"
)

// Results holds every reproduced table and figure (see DESIGN.md's
// per-experiment index).
type Results struct {
	Corpus  *Corpus
	Figure1 RankFigure

	Table1                  OwnerResult
	Table2                  Table2
	Table3                  []IntervalRow
	SharedAllIntervals      int
	SharedAllIntervalsTotal int

	Figure3              []OrgRow
	AttributionRate      float64
	AttributionCompanies int
	DisconnectOnlyRate   float64

	CookieCensus CookieCensus
	Table4       []CookieDomainRow

	Figure4 SyncResult

	Fingerprinting FingerprintResult

	Table6 HTTPSResult

	Malware MalwareResult

	Table7 GeoResult

	Table8ES BannerCounts
	Table8US BannerCounts

	AgeVerification AgeResult
	Policies        PolicyResult
	Monetization    MonetizationResult

	// Extensions beyond the paper's evaluation (its Section 10 future
	// work): adblocker effectiveness, RTA-label adoption, and the
	// inclusion-chain reconstruction of Section 3.1.
	Blocking BlockingResult
	RTA      RTAResult
	Chains   ChainStats
	Storage  StorageResult

	// Robustness is the crawl-path failure taxonomy: per-vantage site
	// loss and the class breakdown of failed visits and requests.
	Robustness RobustnessResult

	// Validation scores the pipeline's heuristics against the generator's
	// planted ground truth — exact precision/recall where the paper could
	// only sample manually.
	Validation Validation
}

// SyncEdgeThreshold scales the paper's Figure 4 edge threshold (75 synced
// cookies) with corpus scale, keeping at least 2.
func (st *Study) SyncEdgeThreshold() int {
	t := int(75 * st.Cfg.Params.Scale)
	if t < 2 {
		t = 2
	}
	return t
}

// Run executes the complete study: corpus compilation, the main dual
// crawls from Spain, the US crawl for Table 8, the remaining geographic
// crawls, and every analysis. The pipeline runs as a dependency graph on
// the internal/sched scheduler — the two main crawls overlap, every
// vantage crawl fans out as soon as the corpus lands, and each analysis
// fires the moment its inputs resolve — bounded by Config.StageWorkers.
// StageWorkers 1 runs one stage at a time; every worker count produces
// identical Results (pinned by TestScheduleEquivalence). Every stage is
// traced (visible on /spans), timed into the study_stage_seconds
// histogram (visible on /metrics), and records its queue wait and the
// in-flight gauge.
// Run also assembles the run's provenance: Study.Provenance (the
// deterministic manifest — config fingerprint, corpus digests, per-stage
// and per-figure record counts and content digests) and Study.RunInfo
// (the volatile wall-clock sidecar). Both live on the Study rather than
// in Results so schedule-equivalence comparisons stay byte-exact.
func (st *Study) Run(ctx context.Context) (*Results, error) {
	st.prov.Reset()
	start := st.clock()
	res, err := st.runScheduled(ctx)
	if err != nil {
		return nil, err
	}
	m, merr := st.BuildManifest(res)
	if merr != nil {
		return nil, fmt.Errorf("core: manifest: %w", merr)
	}
	st.Provenance = m
	st.RunInfo = st.buildRunInfo(start)
	return res, nil
}

// pipeState holds the intermediate outputs flowing between pipeline
// stages. Each field is written by exactly one stage and read only by
// stages that declare that writer as a dependency; the scheduler's
// completion edges provide the happens-before. The two maps collect
// concurrent fan-out stages under their own mutexes.
type pipeState struct {
	res *Results

	corpus      *Corpus
	pornES      *CrawlResult
	regES       *CrawlResult
	pornUS      *CrawlResult
	regularTP   map[string]bool
	interactive map[string]*browser.InteractiveVisit

	crawlMu sync.Mutex // guards crawls: vantage crawl stages run concurrently
	crawls  map[string]*CrawlResult

	ageMu     sync.Mutex
	ageVisits map[string]map[string]*browser.InteractiveVisit
}

func newPipeState() *pipeState {
	return &pipeState{
		res:       &Results{},
		crawls:    map[string]*CrawlResult{},
		ageVisits: map[string]map[string]*browser.InteractiveVisit{},
	}
}

// runScheduled executes the pipeline as an explicit dependency graph: the
// porn and reference crawls overlap, the US, interactive,
// age-verification and geographic vantage crawls all fan out the moment
// the corpus lands, and every analysis fires as soon as its inputs
// resolve. Each Results field is written by exactly one stage, and every
// edge mirrors a true data dependency, so the worker count changes
// wall-clock, never results.
func (st *Study) runScheduled(ctx context.Context) (*Results, error) {
	ctx = obs.WithTracer(ctx, st.Tracer)
	ctx, root := obs.StartSpan(ctx, "study/run")
	defer root.End()

	ps := newPipeState()
	g := st.buildPipeline(ps)
	err := g.Run(ctx, sched.Options{
		Workers: st.Cfg.StageWorkers,
		Metrics: st.Metrics,
		Logger:  st.Log,
		OnStageDone: func(name string, took time.Duration, err error) {
			st.prov.RecordTiming(name, took)
		},
	})
	if err != nil {
		return nil, err
	}
	return ps.res, nil
}

// buildPipeline declares the full study DAG over the given state. It is
// the pipeline's one declaration of its shape: Run schedules it, and
// BuildManifest publishes its edges as each stage's inputs.
func (st *Study) buildPipeline(ps *pipeState) *sched.Graph {
	res := ps.res
	addCrawl := func(country string, cr *CrawlResult) {
		ps.crawlMu.Lock()
		ps.crawls[country] = cr
		ps.crawlMu.Unlock()
	}

	g := sched.New()
	// pure adapts a synchronous analysis (which cannot fail) to a stage.
	pure := func(fn func()) func(context.Context) error {
		return func(context.Context) error { fn(); return nil }
	}

	g.MustAdd("corpus", func(ctx context.Context) error {
		st.Log.Infof("compiling corpus...")
		c, err := st.CompileCorpus(ctx)
		if err != nil {
			return fmt.Errorf("core: corpus: %w", err)
		}
		ps.corpus = c
		res.Corpus = c
		st.recordCorpusStage(c)
		st.Log.Infof("corpus: %d candidates -> %d porn, %d reference",
			c.Candidates, len(c.Porn), len(c.Reference))
		return nil
	})

	g.MustAdd("analysis/rank-stability", pure(func() { res.Figure1 = st.RankStability(ps.corpus.Porn) }), "corpus")

	g.MustAdd("crawl/porn-ES", func(ctx context.Context) error {
		st.Log.Infof("main crawl (ES)...")
		cr, err := st.CrawlStage(ctx, ps.corpus.Porn, "ES", "crawl/porn-ES", "porn")
		if err != nil {
			return fmt.Errorf("core: porn crawl: %w", err)
		}
		ps.pornES = cr
		addCrawl("ES", cr)
		return nil
	}, "corpus")

	g.MustAdd("crawl/reference-ES", func(ctx context.Context) error {
		cr, err := st.CrawlStage(ctx, ps.corpus.Reference, "ES", "crawl/reference-ES", "reference")
		if err != nil {
			return fmt.Errorf("core: regular crawl: %w", err)
		}
		ps.regES = cr
		tp := map[string]bool{}
		for _, h := range cr.allThirdPartyHosts() {
			tp[h] = true
		}
		ps.regularTP = tp
		return nil
	}, "corpus")

	g.MustAdd("crawl/porn-US", func(ctx context.Context) error {
		st.Log.Infof("banner crawl (US)...")
		cr, err := st.CrawlStage(ctx, ps.corpus.Porn, "US", "crawl/porn-US", "porn")
		if err != nil {
			return fmt.Errorf("core: US crawl: %w", err)
		}
		ps.pornUS = cr
		addCrawl("US", cr)
		return nil
	}, "corpus")

	g.MustAdd("crawl/interactive-ES", func(ctx context.Context) error {
		st.Log.Infof("interactive crawl (ES)...")
		iv, err := st.InteractiveCrawlStage(ctx, ps.corpus.Porn, "ES", "crawl/interactive-ES")
		if err != nil {
			return fmt.Errorf("core: interactive crawl: %w", err)
		}
		ps.interactive = iv
		return nil
	}, "corpus")

	// Analyses over the main dual crawl.
	g.MustAdd("analysis/third-parties", pure(func() {
		res.Table2 = st.AnalyzeThirdParties(ps.pornES, ps.regES)
		res.Table3 = st.AnalyzePopularityIntervals(ps.pornES)
		res.SharedAllIntervals, res.SharedAllIntervalsTotal = st.SharedAcrossAllIntervals(ps.pornES)
	}), "crawl/porn-ES", "crawl/reference-ES")

	g.MustAdd("analysis/organizations", pure(func() {
		rows, cov := st.AnalyzeOrganizations(ps.pornES, ps.regES, 19)
		res.Figure3 = rows
		if cov.Hosts > 0 {
			res.AttributionRate = float64(cov.Attributed) / float64(cov.Hosts)
			res.DisconnectOnlyRate = float64(cov.DisconnectOnly) / float64(cov.Hosts)
		}
		res.AttributionCompanies = len(cov.Companies)
	}), "crawl/porn-ES", "crawl/reference-ES")

	g.MustAdd("analysis/cookies", pure(func() { res.CookieCensus, res.Table4 = st.AnalyzeCookies(ps.pornES, ps.regularTP) }),
		"crawl/porn-ES", "crawl/reference-ES")
	g.MustAdd("analysis/cookie-sync", pure(func() { res.Figure4 = st.AnalyzeCookieSync(ps.pornES, st.SyncEdgeThreshold()) }),
		"crawl/porn-ES")
	g.MustAdd("analysis/fingerprinting", pure(func() { res.Fingerprinting = st.AnalyzeFingerprinting(ps.pornES, ps.regularTP) }),
		"crawl/porn-ES", "crawl/reference-ES")
	g.MustAdd("analysis/https", pure(func() { res.Table6 = st.AnalyzeHTTPS(ps.pornES) }), "crawl/porn-ES")
	g.MustAdd("analysis/malware", pure(func() { res.Malware = st.AnalyzeMalware(ps.pornES) }), "crawl/porn-ES")
	g.MustAdd("analysis/monetization", pure(func() { res.Monetization = st.AnalyzeMonetization(ps.pornES) }), "crawl/porn-ES")
	g.MustAdd("analysis/blocking", pure(func() { res.Blocking = st.AnalyzeBlocking(ps.pornES) }), "crawl/porn-ES")
	g.MustAdd("analysis/rta", pure(func() { res.RTA = st.AnalyzeRTA(ps.pornES) }), "crawl/porn-ES")
	g.MustAdd("analysis/chains", pure(func() { res.Chains = st.AnalyzeInclusionChains(ps.pornES) }), "crawl/porn-ES")
	g.MustAdd("analysis/storage", pure(func() { res.Storage = st.AnalyzeStorage(ps.pornES) }), "crawl/porn-ES")

	g.MustAdd("analysis/banners", pure(func() {
		res.Table8ES = st.AnalyzeBanners(ps.pornES)
		res.Table8US = st.AnalyzeBanners(ps.pornUS)
	}), "crawl/porn-ES", "crawl/porn-US")

	// Compliance analyses over the interactive crawl.
	g.MustAdd("analysis/policies", pure(func() {
		topTracking := st.TopTrackingSites(ps.pornES, 25)
		res.Policies = st.AnalyzePolicies(ps.interactive, topTracking, ps.pornES.thirdPartyHostsBySite())
	}), "crawl/porn-ES", "crawl/interactive-ES")
	g.MustAdd("analysis/owners", pure(func() { res.Table1 = st.AnalyzeOwners(ps.pornES, ps.interactive, 15) }),
		"crawl/porn-ES", "crawl/interactive-ES")
	g.MustAdd("analysis/validation", pure(func() { res.Validation = st.ValidateAgainstTruth(ps.pornES, ps.interactive, res.Table1) }),
		"analysis/owners")

	// Age verification: four interactive vantage crawls fan out, then the
	// pure comparison folds them.
	ageDeps := make([]string, 0, len(AgeVantages()))
	for _, c := range AgeVantages() {
		c := c
		name := "crawl/age-" + c
		g.MustAdd(name, func(ctx context.Context) error {
			iv, err := st.InteractiveCrawlStage(ctx, st.Top50(ps.corpus.Porn), c, name)
			if err != nil {
				return fmt.Errorf("core: age verification: %w", err)
			}
			ps.ageMu.Lock()
			ps.ageVisits[c] = iv
			ps.ageMu.Unlock()
			return nil
		}, "corpus")
		ageDeps = append(ageDeps, name)
	}
	g.MustAdd("analysis/age-verification", pure(func() { res.AgeVerification = st.AnalyzeAgeVisits(ps.ageVisits) }), ageDeps...)

	// Geographic vantage crawls: one stage per remaining country, then the
	// pure Table 7 comparison. ES and US come from the main stages.
	geoDeps := []string{"crawl/porn-ES", "crawl/porn-US", "crawl/reference-ES"}
	for _, c := range st.Cfg.Countries {
		if c == "ES" || c == "US" {
			continue
		}
		c := c
		name := "crawl/geo-" + c
		g.MustAdd(name, func(ctx context.Context) error {
			cr, err := st.CrawlStage(ctx, ps.corpus.Porn, c, name, "porn")
			if err != nil {
				return fmt.Errorf("core: geo: %w", err)
			}
			addCrawl(c, cr)
			return nil
		}, "corpus")
		geoDeps = append(geoDeps, name)
	}
	g.MustAdd("analysis/geo", pure(func() { res.Table7 = st.AnalyzeGeoFrom(ps.regularTP, ps.crawls) }), geoDeps...)

	// All vantages are in crawls once analysis/geo resolves, so the
	// robustness summary covers the whole study.
	g.MustAdd("analysis/robustness", pure(func() { res.Robustness = st.AnalyzeRobustness(ps.crawls) }), "analysis/geo")

	return g
}
