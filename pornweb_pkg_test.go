package pornweb_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"pornweb"
	"pornweb/internal/crawler"
)

// TestFacade exercises the public API end to end at a tiny scale.
func TestFacade(t *testing.T) {
	eco := pornweb.Generate(pornweb.Params{Seed: 21, Scale: 0.01})
	if len(eco.PornSites) == 0 || len(eco.Services) == 0 {
		t.Fatal("empty ecosystem")
	}
	srv, err := pornweb.Serve(eco)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sess, err := crawler.NewSession(crawler.Config{
		DialContext: srv.DialContext,
		RootCAs:     srv.CertPool(),
		Timeout:     5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var target *pornweb.Site
	for _, s := range eco.PornSites {
		if !s.Flaky && !s.Unresponsive {
			target = s
			break
		}
	}
	res, _, err := sess.FetchPage(context.Background(), target.Host, "/")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Body, "<html") {
		t.Error("landing page not served")
	}
}

// TestFacadeStudy runs the full study through the facade.
func TestFacadeStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("full study in -short mode")
	}
	st, err := pornweb.NewStudy(pornweb.StudyConfig{
		Params:  pornweb.Params{Seed: 21, Scale: 0.01},
		Workers: 8,
		Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	pornweb.Report(&sb, res)
	if !strings.Contains(sb.String(), "Table 2") {
		t.Error("report missing Table 2")
	}
	if pornweb.DefaultParams().Scale != 1.0 {
		t.Error("DefaultParams should be paper scale")
	}
}
