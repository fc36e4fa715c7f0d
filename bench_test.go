// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each benchmark
// measures the analysis that produces the experiment and prints the same
// rows the paper reports exactly once per run, so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation alongside the timings. The crawls that
// feed the analyses run once in a shared fixture.
package pornweb_test

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"pornweb/internal/browser"
	"pornweb/internal/core"
	"pornweb/internal/report"
	"pornweb/internal/webgen"
)

// benchScale controls the population size of the benchmark ecosystem.
const benchScale = 0.03

type fixture struct {
	st        *core.Study
	corpus    *core.Corpus
	pornES    *core.CrawlResult
	regES     *core.CrawlResult
	regularTP map[string]bool
	visits    map[string]*browser.InteractiveVisit
	geoCrawls map[string]*core.CrawlResult
}

func setupFixture(b *testing.B) *fixture {
	b.Helper()
	fixtureOnce.Do(func() {
		st, err := core.NewStudy(core.Config{
			Params:  webgen.Params{Seed: 2019, Scale: benchScale},
			Workers: 16,
			Timeout: 20 * time.Second,
		})
		if err != nil {
			fixtureErr = err
			return
		}
		ctx := context.Background()
		corpus, err := st.CompileCorpus(ctx)
		if err != nil {
			fixtureErr = err
			return
		}
		pornES, err := st.Crawl(ctx, corpus.Porn, "ES")
		if err != nil {
			fixtureErr = err
			return
		}
		regES, err := st.Crawl(ctx, corpus.Reference, "ES")
		if err != nil {
			fixtureErr = err
			return
		}
		regularTP := map[string]bool{}
		for _, h := range regES.AllThirdPartyHosts() {
			regularTP[h] = true
		}
		visits, err := st.InteractiveCrawl(ctx, corpus.Porn, "ES")
		if err != nil {
			fixtureErr = err
			return
		}
		geo := map[string]*core.CrawlResult{"ES": pornES}
		for _, c := range []string{"US", "UK", "RU", "IN", "SG"} {
			cr, err := st.Crawl(ctx, corpus.Porn, c)
			if err != nil {
				fixtureErr = err
				return
			}
			geo[c] = cr
		}
		sharedFixture = &fixture{
			st: st, corpus: corpus, pornES: pornES, regES: regES,
			regularTP: regularTP, visits: visits, geoCrawls: geo,
		}
	})
	if fixtureErr != nil {
		b.Fatal(fixtureErr)
	}
	return sharedFixture
}

var (
	fixtureOnce   sync.Once
	sharedFixture *fixture
	fixtureErr    error
	printOnce     = map[string]*sync.Once{}
	printMu       sync.Mutex
)

// printRows emits an experiment's rows exactly once per test-binary run.
func printRows(name string, fn func()) {
	printMu.Lock()
	once, ok := printOnce[name]
	if !ok {
		once = &sync.Once{}
		printOnce[name] = once
	}
	printMu.Unlock()
	once.Do(fn)
}

func BenchmarkCorpusCompilation(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corpus, err := f.st.CompileCorpus(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printRows("corpus", func() { report.Corpus(os.Stdout, corpus) })
		}
	}
}

func BenchmarkFigure1RankStability(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := f.st.RankStability(f.corpus.Porn)
		if i == 0 {
			printRows("figure1", func() { report.Figure1(os.Stdout, fig, 15) })
		}
	}
}

func BenchmarkTable1OwnerClusters(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owners := f.st.AnalyzeOwners(f.pornES, f.visits, 15)
		if i == 0 {
			printRows("table1", func() { report.Table1(os.Stdout, owners) })
		}
	}
}

func BenchmarkTable2ThirdParties(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2 := f.st.AnalyzeThirdParties(f.pornES, f.regES)
		if i == 0 {
			printRows("table2", func() { report.Table2(os.Stdout, t2) })
		}
	}
}

func BenchmarkTable3PopularityIntervals(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := f.st.AnalyzePopularityIntervals(f.pornES)
		shared, total := f.st.SharedAcrossAllIntervals(f.pornES)
		if i == 0 {
			printRows("table3", func() { report.Table3(os.Stdout, rows, shared, total) })
		}
	}
}

func BenchmarkFigure3Organizations(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, cov := f.st.AnalyzeOrganizations(f.pornES, f.regES, 19)
		if i == 0 {
			printRows("figure3", func() {
				ar := float64(cov.Attributed) / float64(cov.Hosts)
				dr := float64(cov.DisconnectOnly) / float64(cov.Hosts)
				report.Figure3(os.Stdout, rows, ar, dr, len(cov.Companies))
			})
		}
	}
}

func BenchmarkCookieCensus(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		census, _ := f.st.AnalyzeCookies(f.pornES, f.regularTP)
		if i == 0 {
			printRows("census", func() { report.CookieCensus(os.Stdout, census) })
		}
	}
}

func BenchmarkTable4CookieDomains(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rows := f.st.AnalyzeCookies(f.pornES, f.regularTP)
		if i == 0 {
			printRows("table4", func() { report.Table4(os.Stdout, rows, 5) })
		}
	}
}

func BenchmarkFigure4CookieSync(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sync := f.st.AnalyzeCookieSync(f.pornES, f.st.SyncEdgeThreshold())
		if i == 0 {
			printRows("figure4", func() { report.Figure4(os.Stdout, sync, 15) })
		}
	}
}

func BenchmarkTable5Fingerprinting(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp := f.st.AnalyzeFingerprinting(f.pornES, f.regularTP)
		if i == 0 {
			printRows("table5", func() { report.Table5(os.Stdout, fp, 10) })
		}
	}
}

func BenchmarkTable6HTTPS(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := f.st.AnalyzeHTTPS(f.pornES)
		if i == 0 {
			printRows("table6", func() { report.Table6(os.Stdout, h) })
		}
	}
}

func BenchmarkMalwarePresence(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := f.st.AnalyzeMalware(f.pornES)
		if i == 0 {
			printRows("malware", func() { report.Malware(os.Stdout, m) })
		}
	}
}

func BenchmarkTable7Geographic(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Crawls are cached in the fixture; this measures the comparison
		// analysis itself.
		geo := f.st.AnalyzeGeoFrom(f.regularTP, f.geoCrawls)
		if i == 0 {
			printRows("table7", func() { report.Table7(os.Stdout, geo) })
		}
	}
}

func BenchmarkTable8CookieBanners(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		es := f.st.AnalyzeBanners(f.geoCrawls["ES"])
		us := f.st.AnalyzeBanners(f.geoCrawls["US"])
		if i == 0 {
			printRows("table8", func() { report.Table8(os.Stdout, es, us) })
		}
	}
}

func BenchmarkAgeVerification(b *testing.B) {
	f := setupFixture(b)
	top := f.st.Top50(f.corpus.Porn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		visits := map[string]map[string]*browser.InteractiveVisit{}
		for _, c := range core.AgeVantages() {
			v, err := f.st.InteractiveCrawlStage(context.Background(), top, c, "crawl/age-"+c)
			if err != nil {
				b.Fatal(err)
			}
			visits[c] = v
		}
		age := f.st.AnalyzeAgeVisits(visits)
		if i == 0 {
			printRows("age", func() { report.Age(os.Stdout, age) })
		}
	}
}

func BenchmarkPrivacyPolicies(b *testing.B) {
	f := setupFixture(b)
	top := f.st.TopTrackingSites(f.pornES, 25)
	perSiteTP := f.pornES.ThirdPartyHostsBySite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := f.st.AnalyzePolicies(f.visits, top, perSiteTP)
		if i == 0 {
			printRows("policies", func() { report.Policies(os.Stdout, p) })
		}
	}
}

func BenchmarkMonetization(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := f.st.AnalyzeMonetization(f.pornES)
		if i == 0 {
			printRows("monetization", func() { report.Monetization(os.Stdout, m) })
		}
	}
}

// BenchmarkBlockingAblation measures the anti-tracking replay (the
// Section 10 extension): how much tracking an EasyList/EasyPrivacy blocker
// removes from the porn crawl.
func BenchmarkBlockingAblation(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := f.st.AnalyzeBlocking(f.pornES)
		if i == 0 {
			printRows("blocking", func() { report.Blocking(os.Stdout, blk) })
		}
	}
}

// BenchmarkRTAAdoption measures the RTA-label scan.
func BenchmarkRTAAdoption(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := f.st.AnalyzeRTA(f.pornES)
		if i == 0 {
			printRows("rta", func() { report.RTA(os.Stdout, r) })
		}
	}
}

// BenchmarkInclusionChains measures the referrer-chain reconstruction.
func BenchmarkInclusionChains(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := f.st.AnalyzeInclusionChains(f.pornES)
		if i == 0 {
			printRows("chains", func() { report.Chains(os.Stdout, c) })
		}
	}
}

// BenchmarkLevenshteinAblation sweeps the party-grouping threshold (the
// paper fixed 0.7 after manual verification) and scores each setting
// against planted ground truth.
func BenchmarkLevenshteinAblation(b *testing.B) {
	f := setupFixture(b)
	thresholds := []float64{0.3, 0.5, 0.6, 0.7, 0.8, 0.9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := f.st.AblateLevenshtein(f.pornES, thresholds)
		if i == 0 {
			printRows("lev-ablation", func() {
				os.Stdout.WriteString("\nLevenshtein-threshold ablation (party labeling vs ground truth)\n")
				os.Stdout.WriteString("----------------------------------------------------------------\n")
				for _, r := range rows {
					fmt.Fprintf(os.Stdout, "threshold %.1f: false-first %5d  false-third %5d  of %d pairs\n",
						r.Threshold, r.FalseFirst, r.FalseThird, r.Pairs)
				}
			})
		}
	}
}

// BenchmarkSyncDetectionAblation compares sync matching with and without
// path-segment identifiers.
func BenchmarkSyncDetectionAblation(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ab := f.st.AblateSyncDetection(f.pornES)
		if i == 0 {
			printRows("sync-ablation", func() {
				fmt.Fprintf(os.Stdout, "\nSync-detection ablation: %d events with paths, %d query-only (%d carried in paths)\n",
					ab.WithPaths, ab.QueryOnly, ab.PathCarried)
			})
		}
	}
}

// BenchmarkMainCrawl measures the instrumented crawl itself: full porn
// corpus page loads per iteration (pages/op reported via sites metric).
func BenchmarkMainCrawl(b *testing.B) {
	f := setupFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cr, err := f.st.Crawl(context.Background(), f.corpus.Porn, "ES")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(cr.Crawled)), "sites/op")
		b.ReportMetric(float64(len(cr.Log)), "requests/op")
	}
}
