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
	scale := flag.Float64("scale", 0.02, "corpus scale")
	seed := flag.Uint64("seed", 2019, "generation seed")
	country := flag.String("country", "ES", "vantage country (ES US UK RU IN SG)")
	list := flag.Bool("list", false, "list crawlable porn hosts and exit")
	logOut := flag.String("log", "", "write the raw request log as JSONL to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof/ on this address; also prints a metrics summary after the visit")
	faults := flag.Bool("faults", false, "inject the default chaos profile into the generated ecosystem")
	retries := flag.Int("retries", 0, "max attempts per request (0 or 1 = single-shot)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive failures that open a host's circuit breaker (0 = disabled)")
	flag.Parse()

	params := webgen.Params{Seed: *seed, Scale: *scale}
	if *faults {
		params.Faults = webgen.DefaultFaultProfile()
		params.Faults.Geo451 = true
	}
	eco := webgen.Generate(params)
	if *list {
		for _, s := range eco.PornSites {
			if !s.Flaky && !s.Unresponsive {
				fmt.Println(s.Host)
			}
		}
		return
	}
	host := flag.Arg(0)
	if host == "" {
		fmt.Fprintln(os.Stderr, "usage: crawlsite [flags] <host> (try -list)")
		os.Exit(2)
	}

	var reg *obs.Registry
	var opts []webserver.Option
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		opts = append(opts, webserver.WithMetrics(reg))
	}
	srv, err := webserver.Start(eco, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawlsite:", err)
		os.Exit(1)
	}
	defer srv.Close()
	if reg != nil {
		admin, err := obs.ServeAdmin(*metricsAddr, reg, nil, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crawlsite:", err)
			os.Exit(1)
		}
		defer admin.Close()
		fmt.Printf("observability: http://%s/metrics\n", admin.Addr())
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
		fmt.Fprintln(os.Stderr, "crawlsite:", err)
		os.Exit(1)
	}
	defer sess.Close()
	b := browser.New(sess)
	pv := b.Visit(context.Background(), host)
	if !pv.OK {
		fmt.Printf("visit FAILED: %s\n", pv.Err)
		if pv.FailClass != "" {
			fmt.Printf("failure class: %s\n", pv.FailClass)
		}
		os.Exit(1)
	}
	fmt.Printf("visited %s (https=%v)\n", pv.FinalURL, pv.HTTPS)

	fmt.Println("\nrequests:")
	for _, r := range sess.Log() {
		status := fmt.Sprint(r.Status)
		if r.Err != "" {
			status = "ERR"
		}
		fmt.Printf("  [%-8s] %-4s %s", r.Initiator, status, r.URL)
		if r.Attempt > 1 {
			fmt.Printf(" (attempt %d)", r.Attempt)
		}
		if r.RedirectTo != "" {
			fmt.Printf(" -> %s", r.RedirectTo)
		}
		fmt.Println()
		for _, c := range r.SetCookies {
			v := c.Value
			if len(v) > 48 {
				v = v[:48] + "..."
			}
			kind := "persistent"
			if c.Session {
				kind = "session"
			}
			fmt.Printf("      set-cookie %s=%s (%s)\n", c.Name, v, kind)
		}
	}

	fmt.Println("\nscript traces:")
	for _, st := range pv.Traces {
		name := st.URL
		if name == "" {
			name = "(inline)"
		}
		v := fingerprint.ClassifyTrace(st.Trace)
		fmt.Printf("  %s: %s", name, st.Trace.Summary())
		if v.Any() {
			fmt.Printf("  ** fingerprinting: canvas=%v font=%v webrtc=%v", v.CanvasFP, v.FontFP, v.WebRTC)
		}
		fmt.Println()
		for _, reason := range v.Reasons {
			fmt.Printf("      %s\n", reason)
		}
	}

	fmt.Println("\ncompliance surface:")
	if bt, ok := consent.DetectBanner(pv.DOM); ok {
		fmt.Printf("  cookie banner: %s\n", bt)
	} else {
		fmt.Println("  cookie banner: none")
	}
	if info, ok := consent.DetectAgeGate(pv.DOM); ok {
		fmt.Printf("  age gate: detected (bypassable=%v)\n", info.Bypassable)
	} else {
		fmt.Println("  age gate: none")
	}
	links := consent.FindPolicyLinks(pv.DOM)
	fmt.Printf("  privacy policy links: %v\n", links)
	m := consent.DetectMonetization(pv.DOM)
	fmt.Printf("  monetization: accounts=%v premium=%v paid=%v\n", m.HasAccounts, m.HasPremium, m.Paid)

	if reg != nil {
		fmt.Println("\nmetrics:")
		reg.WriteExposition(os.Stdout)
	}

	if *logOut != "" {
		f, err := os.Create(*logOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crawlsite:", err)
			os.Exit(1)
		}
		if err := crawler.ExportJSONL(f, sess.Log()); err != nil {
			fmt.Fprintln(os.Stderr, "crawlsite:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\nrequest log written to %s\n", *logOut)
	}
}
