// Command studydiff compares the provenance manifests of two study runs
// and reports which figures changed and which pipeline stage diverged
// first. Point it at two manifest.json files, or at two directories
// written by pornstudy -provenance (it resolves manifest.json inside).
//
// Usage:
//
//	studydiff [-json] A B
//
// Exit status:
//
//	0  the runs are identical (same config fingerprint, corpora,
//	   stage digests and figure digests)
//	1  the runs differ; the report names every changed figure and the
//	   earliest diverging stage(s) in the pipeline DAG
//	2  usage or I/O error (missing file, unparsable manifest)
//
// The exit status makes studydiff usable as a CI determinism gate: run
// the seeded study twice and require exit 0 (see `make ci`).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"pornweb/internal/provenance"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit status lifted out, so the
// command is testable end to end.
func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("studydiff", flag.ContinueOnError)
	fset.SetOutput(stderr)
	jsonOut := fset.Bool("json", false, "emit the diff as JSON instead of the human-readable report")
	fset.Usage = func() {
		fmt.Fprintf(stderr, "usage: studydiff [-json] <manifest-or-dir> <manifest-or-dir>\n")
		fset.PrintDefaults()
	}
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if fset.NArg() != 2 {
		fset.Usage()
		return 2
	}

	var ms [2]*provenance.Manifest
	var shards [2]*provenance.ShardManifest
	for i, path := range fset.Args() {
		var err error
		if ms[i], err = load(path); err == nil {
			shards[i], err = loadShards(path)
		}
		if err != nil {
			fmt.Fprintln(stderr, "studydiff:", err)
			return 2
		}
	}

	// When both runs carry a shards.json sidecar, their per-shard digests
	// are compared too; a serial run has none, and comparing a sharded
	// run against a serial one rests on the main manifest alone (that is
	// the equivalence the sidecar exists to keep out of the manifest).
	if shards[0] != nil && shards[1] != nil {
		if stages := provenance.DiffShardStages(shards[0], shards[1]); len(stages) > 0 {
			fmt.Fprintf(stderr, "studydiff: shard digests differ in stages %v\n", stages)
			return 1
		}
	}

	d := provenance.Diff(ms[0], ms[1])
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			fmt.Fprintln(stderr, "studydiff:", err)
			return 2
		}
	} else {
		d.Format(stdout)
	}
	if !d.Identical {
		return 1
	}
	return 0
}

// load resolves a path to a manifest: a directory means the
// manifest.json written into it by pornstudy -provenance.
func load(path string) (*provenance.Manifest, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		path = filepath.Join(path, "manifest.json")
	}
	return provenance.LoadManifest(path)
}

// loadShards resolves a path's shards.json sidecar: nil without error
// when the file is absent (a serial run writes none) or when the
// argument was a manifest file rather than a run directory. A sidecar
// that exists but cannot be read or parsed is an error, not a skip.
func loadShards(path string) (*provenance.ShardManifest, error) {
	fi, err := os.Stat(path)
	if err != nil || !fi.IsDir() {
		return nil, nil
	}
	sm, err := provenance.LoadShardManifest(filepath.Join(path, "shards.json"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return sm, err
}
