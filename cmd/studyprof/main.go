// Command studyprof is the study's continuous-profiling harness: it runs
// the seeded study under a CPU profile, parses the resulting pprof
// protobuf with internal/profparse (standard library only — no external
// pprof tooling), and prints a hot-path table attributing CPU to
// pipeline stages via the pprof labels the scheduler propagates (stage,
// op, vantage), with the top-N hottest leaf functions
// per stage.
//
// Usage:
//
//	studyprof [-scale 0.004] [-seed 2019] [-workers 8] [-stage-workers 0]
//	          [-top 3] [-json] [-heap] [-cpuprofile FILE]
//	          [-provenance DIR] [-min-attrib 0.9]
//
// The table's ordering is value-independent — stages sort by name
// (unlabeled last), functions by CPU then name — so two runs of the same
// config produce identically ordered tables even though sample counts
// are statistical. -json emits the same attribution as JSON for
// scripting. -min-attrib fails the run (exit 1) when less than the
// given fraction of CPU samples carries a stage label, which is the
// offline CI gate: label-propagation regressions surface as attribution
// loss. -heap additionally captures a post-run heap profile and prints
// its global top allocation sites (heap samples carry no goroutine
// labels, so no per-stage split is claimed). -cpuprofile saves the raw
// profile for external tooling. -provenance writes the study's
// manifest.json and runinfo.json plus a profile.json sidecar holding
// the attribution — the manifest stays byte-identical with profiling on
// or off, pinned by TestManifestEquivalence.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"pornweb/internal/core"
	"pornweb/internal/profparse"
	"pornweb/internal/webgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "studyprof:", err)
		os.Exit(1)
	}
}

func run() error {
	scale := flag.Float64("scale", 0.004, "corpus scale (1.0 = paper size)")
	seed := flag.Uint64("seed", 2019, "generation seed")
	workers := flag.Int("workers", 8, "crawl parallelism")
	stageWorkers := flag.Int("stage-workers", 0, "concurrent pipeline stages (0 = NumCPU)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-page timeout")
	top := flag.Int("top", 3, "hottest leaf functions to print per stage")
	jsonOut := flag.Bool("json", false, "emit the attribution as JSON instead of a text table")
	heap := flag.Bool("heap", false, "also capture a post-run heap profile and print global top allocation sites")
	cpuprofile := flag.String("cpuprofile", "", "save the raw CPU profile to this file")
	provDir := flag.String("provenance", "", "write manifest.json, runinfo.json and profile.json into this directory")
	minAttrib := flag.Float64("min-attrib", 0, "exit 1 when less than this fraction of CPU is stage-attributed (0 disables)")
	flag.Parse()

	cfg := core.Config{
		Params:       webgen.Params{Seed: *seed, Scale: *scale},
		Workers:      *workers,
		StageWorkers: *stageWorkers,
		Timeout:      *timeout,
	}
	st, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}
	defer st.Close()

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("start profile: %w", err)
	}
	start := time.Now()
	_, runErr := st.Run(context.Background())
	took := time.Since(start)
	pprof.StopCPUProfile()
	if runErr != nil {
		return runErr
	}

	if *cpuprofile != "" {
		if err := os.WriteFile(*cpuprofile, prof.Bytes(), 0o644); err != nil {
			return err
		}
	}
	p, err := profparse.Parse(prof.Bytes())
	if err != nil {
		return fmt.Errorf("parse profile: %w", err)
	}
	a := profparse.Attribute(p, *top)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(a); err != nil {
			return err
		}
	} else {
		fmt.Printf("studyprof: scale %.3g seed %d (%s wall, %d samples)\n",
			*scale, *seed, took.Round(time.Millisecond), len(p.Sample))
		if err := profparse.WriteTable(os.Stdout, a); err != nil {
			return err
		}
	}

	if *heap {
		runtime.GC() // flush recently freed objects out of inuse_space
		var hbuf bytes.Buffer
		if err := pprof.Lookup("heap").WriteTo(&hbuf, 0); err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
		hp, err := profparse.Parse(hbuf.Bytes())
		if err != nil {
			return fmt.Errorf("parse heap profile: %w", err)
		}
		fmt.Printf("\nheap (global inuse_space — heap samples carry no stage labels):\n")
		for _, row := range profparse.TopFunctions(hp, "inuse_space", *top) {
			fmt.Printf("  %s\t%d bytes\t%.1f%%\n", row.Name, row.Nanos, 100*row.Share)
		}
	}

	if *provDir != "" {
		if err := st.WriteProvenance(*provDir); err != nil {
			return fmt.Errorf("provenance: %w", err)
		}
		f, err := os.Create(filepath.Join(*provDir, "profile.json"))
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(a); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if *minAttrib > 0 && a.AttributedShare < *minAttrib {
		return fmt.Errorf("attribution %.1f%% below threshold %.1f%% — stage labels are not reaching the hot paths",
			100*a.AttributedShare, 100**minAttrib)
	}
	return nil
}
