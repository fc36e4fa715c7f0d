package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"pornweb/internal/blocklist"
	"pornweb/internal/crawler"
	"pornweb/internal/webgen"
)

// TestScheduledCancellation pins the pipeline's cancellation behaviour
// at one stage worker and at the NumCPU default: a pre-cancelled parent
// context means no stage runs at all and Run returns no partial results.
func TestScheduledCancellation(t *testing.T) {
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("stage-workers=%d", workers), func(t *testing.T) {
			st, err := NewStudy(Config{
				Params:       webgen.Params{Seed: 11, Scale: 0.01},
				Workers:      2,
				StageWorkers: workers,
				Timeout:      5 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res, err := st.Run(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Run error = %v, want context.Canceled in its chain", err)
			}
			if res != nil {
				t.Fatalf("Run returned partial results after cancellation")
			}
		})
	}
}

// geoTestStudy builds the minimal Study AnalyzeGeoFrom and
// AnalyzeRobustness need: a country list, an empty blocklist and an empty
// ecosystem (no server, no crawls).
func geoTestStudy(countries []string) *Study {
	return &Study{
		Cfg:      Config{Countries: countries},
		Eco:      &webgen.Ecosystem{},
		EasyList: blocklist.Parse("empty", nil),
	}
}

// TestGeoRowOrderCustomCountries is the regression test for the Table 7
// row order: geoOrder maps every non-paper country to the same rank, and
// sort.Slice is unstable, so without the name tie-break a custom country
// list produced rows in a different order run to run.
func TestGeoRowOrderCustomCountries(t *testing.T) {
	countries := []string{"ES", "FR", "DE", "AT"}
	st := geoTestStudy(countries)
	crawls := map[string]*CrawlResult{}
	for _, c := range countries {
		crawls[c] = &CrawlResult{Country: c}
	}

	// The paper vantage (ES) sorts first; the non-paper countries follow
	// alphabetically. Repeat to catch order instability.
	want := []string{"ES", "AT", "DE", "FR"}
	for i := 0; i < 20; i++ {
		res := st.AnalyzeGeoFrom(nil, crawls)
		if len(res.Rows) != len(want) {
			t.Fatalf("got %d rows, want %d", len(res.Rows), len(want))
		}
		for j, w := range want {
			if res.Rows[j].Country != w {
				t.Fatalf("iteration %d: row %d = %q, want %q", i, j, res.Rows[j].Country, w)
			}
		}
	}

	// The robustness summary shares the ordering.
	rob := st.AnalyzeRobustness(crawls)
	for j, w := range want {
		if rob.Rows[j].Country != w {
			t.Fatalf("robustness row %d = %q, want %q", j, rob.Rows[j].Country, w)
		}
	}
}

// TestGeoLess pins the comparator itself: paper order first, then the
// alphabetical tie-break.
func TestGeoLess(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"US", "UK", true},  // paper order, not alphabetical
		{"SG", "AT", true},  // paper vantage before any custom country
		{"AT", "FR", true},  // custom countries alphabetical
		{"FR", "AT", false}, // ...and antisymmetric
		{"DE", "DE", false}, // irreflexive
		{"ES", "US", false}, // ES is third in the paper's table
	}
	for _, c := range cases {
		if got := geoLess(c.a, c.b); got != c.want {
			t.Errorf("geoLess(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestCrawlLogDeterministic pins that a crawl's request log does not
// depend on how concurrent visits interleave: the stage is folded from
// per-site entries in host order, so one visit at a time and eight at
// once yield the same records in the same order with the same Seq.
func TestCrawlLogDeterministic(t *testing.T) {
	crawlLog := func(workers int) []crawler.Record {
		cfg := provCfg(11)
		cfg.Workers = workers
		st, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		corpus, err := st.CompileCorpus(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		cr, err := st.Crawl(t.Context(), corpus.Porn, "ES")
		if err != nil {
			t.Fatal(err)
		}
		if len(cr.Crawled) < 2 {
			t.Fatalf("crawl loaded %d sites; need several to interleave", len(cr.Crawled))
		}
		return cr.Log
	}
	serial, parallel := crawlLog(1), crawlLog(8)
	if len(serial) != len(parallel) {
		t.Fatalf("Workers 1 logged %d records, Workers 8 %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("log record %d differs:\n  Workers 1: %+v\n  Workers 8: %+v", i, serial[i], parallel[i])
		}
	}
}
