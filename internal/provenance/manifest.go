package provenance

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// ManifestVersion identifies the manifest schema; Diff refuses to
// compare manifests of different versions.
const ManifestVersion = 1

// CorpusInfo fingerprints one input corpus.
type CorpusInfo struct {
	Count  int    `json:"count"`
	Digest string `json:"digest"`
}

// FigureInfo is the provenance of one report figure or table: which
// stages fed it, how many rows it renders, and a digest of its content.
type FigureInfo struct {
	Stages []string `json:"stages"`
	Rows   int      `json:"rows"`
	Digest string   `json:"digest"`
}

// StoreInfo summarizes the durable visit store backing a run: how many
// visit entries it holds and the order-independent content digest over
// all of them. Because every stored entry is a pure function of (seed,
// config, site), a killed-and-resumed run must reproduce the exact
// digest of an uninterrupted one — the crash-safety gate's claim.
type StoreInfo struct {
	Entries int    `json:"entries"`
	Digest  string `json:"digest"`
}

// Manifest is the complete deterministic provenance of one study run.
// Everything in it is a pure function of (config, seed, corpus), so two
// runs of the same study produce byte-identical manifests — the property
// the determinism gate asserts.
type Manifest struct {
	Version           int                   `json:"version"`
	ConfigFingerprint string                `json:"config_fingerprint"`
	Seed              int64                 `json:"seed"`
	Scale             float64               `json:"scale"`
	Corpora           map[string]CorpusInfo `json:"corpora"`
	Stages            map[string]StageInfo  `json:"stages"`
	Figures           map[string]FigureInfo `json:"figures"`
	// Failures totals failed visits by taxonomy class across all crawls.
	Failures map[string]int `json:"failures,omitempty"`
	// Store is present only for store-backed runs; Diff compares it only
	// when both manifests carry it.
	Store *StoreInfo `json:"store,omitempty"`
}

// Write renders the manifest as stable, indented JSON at path.
// encoding/json sorts all map keys, so equal manifests are equal bytes.
func (m *Manifest) Write(path string) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("provenance: marshal manifest: %w", err)
	}
	raw = append(raw, '\n')
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// LoadManifest reads a manifest written by Write.
func LoadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("provenance: parse %s: %w", path, err)
	}
	return &m, nil
}

// RunInfo is the volatile sidecar to a manifest: wall-clock facts that
// legitimately differ between otherwise identical runs. It is written as
// runinfo.json next to manifest.json and ignored by Diff.
type RunInfo struct {
	StartedAt     time.Time          `json:"started_at"`
	WallMS        float64            `json:"wall_ms"`
	StageWallMS   map[string]float64 `json:"stage_wall_ms,omitempty"`
	StageWorkers  int                `json:"stage_workers"`
	FlightSeen    uint64             `json:"flight_seen,omitempty"`
	FlightKept    uint64             `json:"flight_kept,omitempty"`
	FlightDropped uint64             `json:"flight_sampled_out,omitempty"`
}

// Write renders the run info as indented JSON at path.
func (ri *RunInfo) Write(path string) error {
	raw, err := json.MarshalIndent(ri, "", "  ")
	if err != nil {
		return fmt.Errorf("provenance: marshal runinfo: %w", err)
	}
	raw = append(raw, '\n')
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
