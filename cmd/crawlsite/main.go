// Command crawlsite visits one site of a generated ecosystem with the
// instrumented browser and dumps everything the instrumentation saw:
// requests, cookies, script traces, fingerprinting verdicts, and detected
// compliance surfaces. A debugging lens over the measurement pipeline.
//
// Usage:
//
//	crawlsite [-scale 0.02] [-seed 2019] [-country ES] pornhub.com
//	crawlsite -faults -retries 3 -breaker-threshold 5 flakyhub.com
//	crawlsite -list            # print crawlable porn hosts and exit
//
// -faults regenerates the ecosystem with the default chaos profile, so
// a visit exercises the retry/breaker path; each request record then
// carries its attempt number, and failed visits report their taxonomy
// class.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pornweb/internal/browser"
	"pornweb/internal/consent"
	"pornweb/internal/crawler"
	"pornweb/internal/fingerprint"
	"pornweb/internal/obs"
	"pornweb/internal/resilience"
	"pornweb/internal/webgen"
	"pornweb/internal/webserver"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit status lifted out, so the
// command is testable end to end and its deferred closes run on every
// exit path.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crawlsite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.02, "corpus scale")
	seed := fs.Uint64("seed", 2019, "generation seed")
	country := fs.String("country", "ES", "vantage country (ES US UK RU IN SG)")
	list := fs.Bool("list", false, "list crawlable porn hosts and exit")
	logOut := fs.String("log", "", "write the raw request log as JSONL to this file")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics and /debug/pprof/ on this address; also prints a metrics summary after the visit")
	faults := fs.Bool("faults", false, "inject the default chaos profile into the generated ecosystem")
	retries := fs.Int("retries", 0, "max attempts per request (0 or 1 = single-shot)")
	breakerThreshold := fs.Int("breaker-threshold", 0, "consecutive failures that open a host's circuit breaker (0 = disabled)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	params := webgen.Params{Seed: *seed, Scale: *scale}
	if *faults {
		params.Faults = webgen.DefaultFaultProfile()
		params.Faults.Geo451 = true
	}
	eco := webgen.Generate(params)
	if *list {
		for _, s := range eco.PornSites {
			if !s.Flaky && !s.Unresponsive {
				fmt.Fprintln(stdout, s.Host)
			}
		}
		return 0
	}
	host := fs.Arg(0)
	if host == "" {
		fmt.Fprintln(stderr, "usage: crawlsite [flags] <host> (try -list)")
		return 2
	}

	var reg *obs.Registry
	var opts []webserver.Option
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		opts = append(opts, webserver.WithMetrics(reg))
	}
	srv, err := webserver.Start(eco, opts...)
	if err != nil {
		fmt.Fprintln(stderr, "crawlsite:", err)
		return 1
	}
	defer srv.Close()
	if reg != nil {
		admin, err := obs.ServeAdmin(*metricsAddr, reg, nil, nil)
		if err != nil {
			fmt.Fprintln(stderr, "crawlsite:", err)
			return 1
		}
		defer admin.Close()
		fmt.Fprintf(stdout, "observability: http://%s/metrics\n", admin.Addr())
	}
	sess, err := crawler.NewSession(crawler.Config{
		DialContext: srv.DialContext,
		RootCAs:     srv.CertPool(),
		Country:     *country,
		Timeout:     20 * time.Second,
		Metrics:     reg,
		Retry: resilience.Policy{
			MaxAttempts:      *retries,
			Seed:             int64(*seed),
			BreakerThreshold: *breakerThreshold,
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "crawlsite:", err)
		return 1
	}
	defer sess.Close()
	b := browser.New(sess)
	pv := b.Visit(context.Background(), host)
	if !pv.OK {
		fmt.Fprintf(stdout, "visit FAILED: %s\n", pv.Err)
		if pv.FailClass != "" {
			fmt.Fprintf(stdout, "failure class: %s\n", pv.FailClass)
		}
		return 1
	}
	fmt.Fprintf(stdout, "visited %s (https=%v)\n", pv.FinalURL, pv.HTTPS)

	fmt.Fprintln(stdout, "\nrequests:")
	for _, r := range sess.Log() {
		status := fmt.Sprint(r.Status)
		if r.Err != "" {
			status = "ERR"
		}
		fmt.Fprintf(stdout, "  [%-8s] %-4s %s", r.Initiator, status, r.URL)
		if r.Attempt > 1 {
			fmt.Fprintf(stdout, " (attempt %d)", r.Attempt)
		}
		if r.RedirectTo != "" {
			fmt.Fprintf(stdout, " -> %s", r.RedirectTo)
		}
		fmt.Fprintln(stdout)
		for _, c := range r.SetCookies {
			v := c.Value
			if len(v) > 48 {
				v = v[:48] + "..."
			}
			kind := "persistent"
			if c.Session {
				kind = "session"
			}
			fmt.Fprintf(stdout, "      set-cookie %s=%s (%s)\n", c.Name, v, kind)
		}
	}

	fmt.Fprintln(stdout, "\nscript traces:")
	for _, st := range pv.Traces {
		name := st.URL
		if name == "" {
			name = "(inline)"
		}
		v := fingerprint.ClassifyTrace(st.Trace)
		fmt.Fprintf(stdout, "  %s: %s", name, st.Trace.Summary())
		if v.Any() {
			fmt.Fprintf(stdout, "  ** fingerprinting: canvas=%v font=%v webrtc=%v", v.CanvasFP, v.FontFP, v.WebRTC)
		}
		fmt.Fprintln(stdout)
		for _, reason := range v.Reasons {
			fmt.Fprintf(stdout, "      %s\n", reason)
		}
	}

	fmt.Fprintln(stdout, "\ncompliance surface:")
	if bt, ok := consent.DetectBanner(pv.DOM); ok {
		fmt.Fprintf(stdout, "  cookie banner: %s\n", bt)
	} else {
		fmt.Fprintln(stdout, "  cookie banner: none")
	}
	if info, ok := consent.DetectAgeGate(pv.DOM); ok {
		fmt.Fprintf(stdout, "  age gate: detected (bypassable=%v)\n", info.Bypassable)
	} else {
		fmt.Fprintln(stdout, "  age gate: none")
	}
	links := consent.FindPolicyLinks(pv.DOM)
	fmt.Fprintf(stdout, "  privacy policy links: %v\n", links)
	m := consent.DetectMonetization(pv.DOM)
	fmt.Fprintf(stdout, "  monetization: accounts=%v premium=%v paid=%v\n", m.HasAccounts, m.HasPremium, m.Paid)

	if reg != nil {
		fmt.Fprintln(stdout, "\nmetrics:")
		reg.WriteExposition(stdout)
	}

	if *logOut != "" {
		f, err := os.Create(*logOut)
		if err != nil {
			fmt.Fprintln(stderr, "crawlsite:", err)
			return 1
		}
		err = crawler.ExportJSONL(f, sess.Log())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "crawlsite:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nrequest log written to %s\n", *logOut)
	}
	return 0
}
