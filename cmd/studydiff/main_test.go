package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pornweb/internal/provenance"
)

// writeRun lays down a run directory as pornstudy -provenance -shards
// writes it: manifest.json plus the shards.json sidecar.
func writeRun(t *testing.T, dir string, m *provenance.Manifest, sm *provenance.ShardManifest) {
	t.Helper()
	if err := m.Write(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
	if err := sm.Write(filepath.Join(dir, "shards.json")); err != nil {
		t.Fatal(err)
	}
}

func TestRunExitStatus(t *testing.T) {
	manifest := func() *provenance.Manifest {
		return &provenance.Manifest{
			Version:           provenance.ManifestVersion,
			ConfigFingerprint: "32cf97fe01023f6f",
			Seed:              2019,
			Scale:             0.004,
			Corpora:           map[string]provenance.CorpusInfo{"porn": {Count: 40, Digest: "6e155658c0bae4c3"}},
			Stages: map[string]provenance.StageInfo{
				"crawl/porn-ES":    {Records: 40, Digest: "aa"},
				"analysis/cookies": {Records: 21, Digest: "bb", Inputs: []string{"crawl/porn-ES"}},
			},
			Figures: map[string]provenance.FigureInfo{
				"table4": {Stages: []string{"analysis/cookies"}, Rows: 10, Digest: "cc"},
			},
		}
	}
	shards := func() *provenance.ShardManifest {
		return &provenance.ShardManifest{
			Version:           provenance.ShardManifestVersion,
			ConfigFingerprint: "32cf97fe01023f6f",
			Seed:              2019,
			Stages: map[string]provenance.ShardStage{
				"crawl/porn-ES": {Shards: 2, MergedDigest: "dd", Info: []provenance.ShardInfo{
					{Shard: 0, Hosts: 20, Entries: 20, Digest: "ee"},
					{Shard: 1, Hosts: 20, Entries: 20, Digest: "ff"},
				}},
			},
		}
	}

	for _, tc := range []struct {
		name string
		// perturb edits run b after both runs were written identically.
		perturb func(t *testing.T, b string)
		want    int
	}{
		{"identical", func(*testing.T, string) {}, 0},
		{"figure digest differs", func(t *testing.T, b string) {
			m := manifest()
			m.Figures["table4"] = provenance.FigureInfo{Stages: []string{"analysis/cookies"}, Rows: 10, Digest: "c0"}
			writeRun(t, b, m, shards())
		}, 1},
		{"missing run dir", func(t *testing.T, b string) {
			if err := os.RemoveAll(b); err != nil {
				t.Fatal(err)
			}
		}, 2},
		{"corrupt shards.json", func(t *testing.T, b string) {
			if err := os.WriteFile(filepath.Join(b, "shards.json"), []byte(`{"stages": [`), 0o644); err != nil {
				t.Fatal(err)
			}
		}, 2},
		{"shard stage differs", func(t *testing.T, b string) {
			sm := shards()
			st := sm.Stages["crawl/porn-ES"]
			st.Info = []provenance.ShardInfo{
				{Shard: 0, Hosts: 19, Entries: 19, Digest: "e0"},
				{Shard: 1, Hosts: 21, Entries: 21, Digest: "f0"},
			}
			sm.Stages["crawl/porn-ES"] = st
			writeRun(t, b, manifest(), sm)
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")
			writeRun(t, a, manifest(), shards())
			writeRun(t, b, manifest(), shards())
			tc.perturb(t, b)
			var out, errb bytes.Buffer
			if code := run([]string{a, b}, &out, &errb); code != tc.want {
				t.Errorf("studydiff a b: exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
					code, tc.want, out.String(), errb.String())
			}
		})
	}
}
