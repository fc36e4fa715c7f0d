package crawler

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"pornweb/internal/obs"
	"pornweb/internal/resilience"
	"pornweb/internal/webgen"
	"pornweb/internal/webserver"
)

// TestVisitStatsAggregation pins the per-site stats the flight recorder
// reads: after a page fetch, the visited site's aggregate must reflect
// the log — request count, byte volume, received cookies.
func TestVisitStatsAggregation(t *testing.T) {
	sess, eco := testSession(t, "ES", "crawl")
	site := alive(eco)
	if site == nil {
		t.Fatal("no alive site")
	}
	if _, _, err := sess.FetchPage(context.Background(), site.Host, "/"); err != nil {
		t.Fatal(err)
	}
	st := sess.VisitStats(site.Host)
	log := sess.Log()
	var wantReq, wantCookies int
	var wantBytes int64
	for _, r := range log {
		if r.SiteHost != site.Host {
			continue
		}
		wantReq++
		wantCookies += len(r.SetCookies)
		wantBytes += int64(r.Bytes)
	}
	if st.Requests != wantReq || st.Requests == 0 {
		t.Errorf("Requests = %d, want %d (nonzero)", st.Requests, wantReq)
	}
	if st.Cookies != wantCookies || st.Cookies == 0 {
		t.Errorf("Cookies = %d, want %d (landing page sets cookies)", st.Cookies, wantCookies)
	}
	if st.Bytes != wantBytes || st.Bytes == 0 {
		t.Errorf("Bytes = %d, want %d (nonzero)", st.Bytes, wantBytes)
	}
	// Only the landing host was contacted, so nothing is third-party yet.
	if st.ThirdParty != 0 {
		t.Errorf("ThirdParty = %d after a landing-page-only fetch", st.ThirdParty)
	}
	// An unvisited site has the zero value.
	if got := sess.VisitStats("never-visited.example"); got != (VisitStats{}) {
		t.Errorf("unvisited site stats = %+v, want zero", got)
	}
}

// TestRecordBytes pins that every successful response logs its body size.
func TestRecordBytes(t *testing.T) {
	sess, eco := testSession(t, "ES", "crawl")
	site := alive(eco)
	if site == nil {
		t.Fatal("no alive site")
	}
	if _, _, err := sess.FetchPage(context.Background(), site.Host, "/"); err != nil {
		t.Fatal(err)
	}
	for _, r := range sess.Log() {
		if r.Status == 200 && r.Bytes == 0 {
			t.Errorf("200 response for %s logged zero bytes", r.URL)
		}
	}
}

// TestTakeVisit visits several sites concurrently on one session and
// takes the visits one by one: each take hands over exactly that site's
// records in request order, renumbered 1..k, plus its failures by class
// (summing, over all takes, to the session's failure counters); a
// second take is empty; and Log keeps the untaken visits, including
// requests attributed to no site, in Seq order.
func TestTakeVisit(t *testing.T) {
	eco := webgen.Generate(webgen.Params{Seed: 7, Scale: 0.02})
	srv, err := webserver.Start(eco)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	reg := obs.NewRegistry()
	sess, err := NewSession(Config{
		DialContext: srv.DialContext,
		RootCAs:     srv.CertPool(),
		Country:     "ES",
		Timeout:     5 * time.Second,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)

	var sites []string
	for _, s := range eco.PornSites {
		if !s.Flaky && !s.Unresponsive && len(sites) < 4 {
			sites = append(sites, s.Host)
		}
	}
	if len(sites) < 4 {
		t.Fatalf("found %d alive sites, want 4", len(sites))
	}
	const dead = "definitely-not-a-host.example"
	sites = append(sites, dead)

	ctx := context.Background()
	var wg sync.WaitGroup
	for _, h := range sites {
		wg.Add(1)
		go func(h string) {
			defer wg.Done()
			// The dead host fails by design; its failures are counted.
			_, _, _ = sess.FetchPage(ctx, h, "/")
		}(h)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := sess.Fetch(ctx, "http://google-analytics.com/px.gif?site=none", "", InitImage, ""); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	before := sess.Log()
	for i, r := range before {
		if r.Seq != i+1 {
			t.Fatalf("log[%d].Seq = %d, want %d", i, r.Seq, i+1)
		}
	}
	keep := sites[0]
	taken := map[string]bool{}
	failures := map[string]uint64{}
	take := func(h string) {
		recs, fails := sess.TakeVisit(h)
		var want []Record
		for _, r := range before {
			if r.SiteHost == h {
				want = append(want, r)
			}
		}
		if len(recs) == 0 || len(recs) != len(want) {
			t.Fatalf("TakeVisit(%s) = %d records, want %d (nonzero)", h, len(recs), len(want))
		}
		for i, r := range recs {
			if r.Seq != i+1 {
				t.Errorf("%s record %d: Seq = %d, want %d", h, i, r.Seq, i+1)
			}
			r.Seq = want[i].Seq
			if !reflect.DeepEqual(r, want[i]) {
				t.Errorf("%s record %d = %+v, want %+v", h, i, r, want[i])
			}
		}
		for class, n := range fails {
			failures[class] += n
		}
		if h == dead && len(fails) == 0 {
			t.Errorf("TakeVisit(%s) has no failures", h)
		}
		if recs, fails := sess.TakeVisit(h); recs != nil || fails != nil {
			t.Errorf("second TakeVisit(%s) = %d records, %v", h, len(recs), fails)
		}
		if st := sess.VisitStats(h); st != (VisitStats{}) {
			t.Errorf("VisitStats(%s) after take = %+v, want zero", h, st)
		}
		taken[h] = true
	}
	for _, h := range sites[1:] {
		take(h)
	}

	var rest []Record
	for _, r := range before {
		if !taken[r.SiteHost] {
			rest = append(rest, r)
		}
	}
	if after := sess.Log(); !reflect.DeepEqual(after, rest) {
		t.Errorf("Log after takes holds %d records, want the %d untaken ones in Seq order", len(after), len(rest))
	}

	take(keep)
	for _, c := range resilience.Classes() {
		want := reg.Counter("crawler_request_failures_total", "country", "ES", "class", string(c)).Value()
		if failures[string(c)] != want {
			t.Errorf("taken %s failures = %d, session counter = %d", c, failures[string(c)], want)
		}
	}
	if recs, fails := sess.TakeVisit(""); len(recs) != 1 || recs[0].Seq != 1 || fails != nil {
		t.Errorf("TakeVisit(\"\") = %+v, %v; want the one unattributed request", recs, fails)
	}
	if got := sess.Log(); len(got) != 0 {
		t.Errorf("Log after every take holds %d records", len(got))
	}
}
