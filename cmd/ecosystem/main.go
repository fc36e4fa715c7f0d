// Command ecosystem generates a synthetic web ecosystem, prints its ground
// truth, and optionally serves it on loopback for manual exploration with
// curl or a browser configured to resolve through it.
//
// Usage:
//
//	ecosystem [-scale 0.02] [-seed 2019] [-serve] [-hosts] [-faults]
//	          [-metrics-addr 127.0.0.1:9090]
//
// -faults generates the ecosystem with the default chaos profile: a
// deterministic subset of hosts answers with transient 5xx bursts,
// dropped connections, truncated bodies, mid-stream resets, redirect
// loops, or injected latency — visible from curl and counted in
// webserver_faults_injected_total on /metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"

	"pornweb/internal/obs"
	"pornweb/internal/webgen"
	"pornweb/internal/webserver"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, waitInterrupt); err != nil {
		fmt.Fprintln(os.Stderr, "ecosystem:", err)
		os.Exit(1)
	}
}

// waitInterrupt blocks until the process receives an interrupt.
func waitInterrupt() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
}

// run is the command with its arguments, its output and, for -serve,
// the wait that keeps the server up.
func run(args []string, stdout io.Writer, wait func()) error {
	fs := flag.NewFlagSet("ecosystem", flag.ExitOnError)
	scale := fs.Float64("scale", 0.02, "corpus scale (1.0 = paper size)")
	seed := fs.Uint64("seed", 2019, "generation seed")
	serve := fs.Bool("serve", false, "start the loopback server and wait")
	hosts := fs.Bool("hosts", false, "list every served hostname")
	metricsAddr := fs.String("metrics-addr", "", "with -serve, expose /metrics and /debug/pprof/ on this address")
	faults := fs.Bool("faults", false, "inject the default chaos profile into the generated ecosystem")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits before Parse returns

	params := webgen.Params{Seed: *seed, Scale: *scale}
	if *faults {
		params.Faults = webgen.DefaultFaultProfile()
		params.Faults.Geo451 = true
	}
	eco := webgen.Generate(params)
	fmt.Fprint(stdout, eco.GroundTruthSummary())
	if *faults {
		byKind := map[webgen.FaultKind]int{}
		for _, h := range eco.AllHosts() {
			if k := eco.FaultKindFor(h); k != webgen.FaultNone {
				byKind[k]++
			}
		}
		fmt.Fprintln(stdout, "\ninjected faults (ground truth):")
		for k := webgen.FaultServerError; k <= webgen.FaultLatency; k++ {
			if byKind[k] > 0 {
				fmt.Fprintf(stdout, "  %-14s %4d hosts\n", k, byKind[k])
			}
		}
	}

	fmt.Fprintln(stdout, "\nowner clusters (ground truth):")
	byOwner := map[string]int{}
	for _, s := range eco.PornSites {
		if s.Owner != nil {
			byOwner[s.Owner.Name]++
		}
	}
	type oc struct {
		name string
		n    int
	}
	var clusters []oc
	for name, n := range byOwner {
		clusters = append(clusters, oc{name, n})
	}
	sort.Slice(clusters, func(i, j int) bool {
		if clusters[i].n != clusters[j].n {
			return clusters[i].n > clusters[j].n
		}
		return clusters[i].name < clusters[j].name
	})
	for _, c := range clusters {
		fmt.Fprintf(stdout, "  %-32s %4d sites\n", c.name, c.n)
	}

	if *hosts {
		fmt.Fprintln(stdout, "\nhosts:")
		for _, h := range eco.AllHosts() {
			fmt.Fprintln(stdout, " ", h)
		}
	}

	if *serve {
		var opts []webserver.Option
		var reg *obs.Registry
		if *metricsAddr != "" {
			reg = obs.NewRegistry()
			opts = append(opts,
				webserver.WithMetrics(reg),
				webserver.WithLogger(obs.NewLogger(os.Stderr, obs.LevelWarn).CountIn(reg)))
		}
		srv, err := webserver.Start(eco, opts...)
		if err != nil {
			return err
		}
		defer srv.Close()
		if reg != nil {
			admin, err := obs.ServeAdmin(*metricsAddr, reg, nil, nil)
			if err != nil {
				return err
			}
			defer admin.Close()
			fmt.Fprintf(stdout, "\nobservability: http://%s/metrics\n", admin.Addr())
		}
		httpAddr, httpsAddr, err := srv.ListenTCP()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nserving: http=%s https=%s\n", httpAddr, httpsAddr)
		fmt.Fprintf(stdout, "example: curl -H 'Host: pornhub.com' http://%s/\n", httpAddr)
		wait()
	}
	return nil
}
