package provenance

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestHashJSONStable(t *testing.T) {
	type cfg struct {
		B int `json:"b"`
		A int `json:"a"`
	}
	h1, err := HashJSON(cfg{A: 1, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := HashJSON(cfg{A: 1, B: 2})
	h3, _ := HashJSON(cfg{A: 1, B: 3})
	if h1 != h2 {
		t.Fatalf("same value hashed differently: %s vs %s", h1, h2)
	}
	if h1 == h3 {
		t.Fatal("different values collided")
	}
	if len(h1) != 16 {
		t.Fatalf("digest %q not 16 hex digits", h1)
	}
	// Map key order must not matter.
	m1, _ := HashJSON(map[string]int{"x": 1, "y": 2})
	m2, _ := HashJSON(map[string]int{"y": 2, "x": 1})
	if m1 != m2 {
		t.Fatal("map key order leaked into digest")
	}
}

func TestMultisetHashOrderIndependent(t *testing.T) {
	var a, b, c MultisetHash
	for _, r := range []string{"GET a.com", "GET b.com", "GET b.com", "GET c.com"} {
		a.Add(r)
	}
	for _, r := range []string{"GET c.com", "GET b.com", "GET a.com", "GET b.com"} {
		b.Add(r)
	}
	for _, r := range []string{"GET a.com", "GET b.com", "GET c.com"} { // one fewer b.com
		c.Add(r)
	}
	if a.Sum() != b.Sum() {
		t.Fatalf("order changed digest: %s vs %s", a.Sum(), b.Sum())
	}
	if a.Count() != 4 || b.Count() != 4 {
		t.Fatalf("counts %d/%d, want 4/4", a.Count(), b.Count())
	}
	if a.Sum() == c.Sum() {
		t.Fatal("multiplicity lost: removing a duplicate kept the digest")
	}
	var empty MultisetHash
	if empty.Sum() == a.Sum() || empty.Count() != 0 {
		t.Fatal("empty multiset not distinct")
	}
}

// TestHasherMatchesHashString pins the streaming hasher to HashString
// of the concatenated parts, wherever the record is split, so digests
// computed either way stay equal.
func TestHasherMatchesHashString(t *testing.T) {
	for _, rec := range []string{"", "a", "site.example\x1f{\"page\":{}}", "GET https://cdn.example.com/lib.js 200"} {
		want := HashString(rec)
		for cut := 0; cut <= len(rec); cut++ {
			got := NewHasher().AddString(rec[:cut]).AddBytes([]byte(rec[cut:])).Sum64()
			if got != want {
				t.Errorf("Hasher(%q | %q) = %x, want HashString %x", rec[:cut], rec[cut:], got, want)
			}
		}
		var a, b MultisetHash
		a.Add(rec)
		b.AddHash(NewHasher().AddBytes([]byte(rec)).Sum64())
		if a.Sum() != b.Sum() {
			t.Errorf("AddHash(%q) digests %s, Add %s", rec, b.Sum(), a.Sum())
		}
	}
	// The reference value of FNV-1a 64 over "a".
	if got := HashString("a"); got != 0xaf63dc4c8601ec8c {
		t.Errorf("HashString(\"a\") = %x, want af63dc4c8601ec8c", got)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	r.RecordStage("crawl/porn-ES", 120, "aaaa")
	r.SetInputs("crawl/porn-ES", []string{"corpus"})
	r.RecordStage("corpus", 50, "bbbb")
	r.RecordTiming("corpus", 30*time.Millisecond)

	stages := r.Stages()
	if got := stages["crawl/porn-ES"]; got.Records != 120 || got.Digest != "aaaa" || len(got.Inputs) != 1 || got.Inputs[0] != "corpus" {
		t.Fatalf("stage record wrong: %+v", got)
	}
	if d := r.Timings()["corpus"]; d != 30*time.Millisecond {
		t.Fatalf("timing %v", d)
	}

	// Mutating the returned copy must not touch the recorder.
	stages["corpus"] = StageInfo{Records: 999}
	if r.Stages()["corpus"].Records != 50 {
		t.Fatal("Stages() returned the live map")
	}

	r.Reset()
	if len(r.Stages()) != 0 || len(r.Timings()) != 0 {
		t.Fatal("Reset left data behind")
	}

	var nilR *Recorder
	nilR.RecordStage("x", 1, "d")
	nilR.SetInputs("x", nil)
	nilR.RecordTiming("x", time.Second)
	nilR.Reset()
	if nilR.Stages() != nil || nilR.Timings() != nil {
		t.Fatal("nil recorder must be inert")
	}
}

func TestManifestWriteDeterministicBytes(t *testing.T) {
	dir := t.TempDir()
	m := &Manifest{
		Version:           ManifestVersion,
		ConfigFingerprint: "cafe",
		Seed:              42,
		Scale:             0.01,
		Corpora:           map[string]CorpusInfo{"porn": {Count: 10, Digest: "aa"}, "reference": {Count: 10, Digest: "bb"}},
		Stages: map[string]StageInfo{
			"corpus":        {Records: 20, Digest: "cc"},
			"crawl/porn-ES": {Records: 400, Digest: "dd", Inputs: []string{"corpus"}},
		},
		Figures:  map[string]FigureInfo{"table3_trackers": {Stages: []string{"crawl/porn-ES"}, Rows: 10, Digest: "ee"}},
		Failures: map[string]int{"timeout": 3},
	}
	p1 := filepath.Join(dir, "a", "manifest.json")
	p2 := filepath.Join(dir, "b", "manifest.json")
	if err := m.Write(p1); err != nil {
		t.Fatal(err)
	}
	if err := m.Write(p2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("same manifest wrote different bytes")
	}
	if b1[len(b1)-1] != '\n' {
		t.Fatal("manifest missing trailing newline")
	}

	got, err := LoadManifest(p1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 42 || got.Stages["crawl/porn-ES"].Records != 400 || got.Figures["table3_trackers"].Digest != "ee" {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

func TestRunInfoWrite(t *testing.T) {
	dir := t.TempDir()
	ri := &RunInfo{
		StartedAt:    time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC),
		WallMS:       1234.5,
		StageWallMS:  map[string]float64{"corpus": 30},
		StageWorkers: 1,
	}
	path := filepath.Join(dir, "runinfo.json")
	if err := ri.Write(path); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	if !bytes.Contains(raw, []byte(`"stage_wall_ms"`)) || !bytes.Contains(raw, []byte(`"stage_workers": 1`)) {
		t.Fatalf("runinfo content: %s", raw)
	}
}
