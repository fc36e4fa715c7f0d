package core

import (
	"bytes"
	"errors"
	"testing"

	"pornweb/internal/provenance"
	"pornweb/internal/store"
)

// storeCfg is provCfg with a durable visit store attached.
func storeCfg(seed uint64, dir string) Config {
	cfg := provCfg(seed)
	cfg.StoreDir = dir
	return cfg
}

// TestResumeEquivalence is the crash-safety property in miniature: a
// store-backed run killed at a seeded append, then resumed against the
// surviving directory, must produce a manifest byte-identical to an
// uninterrupted run — for a kill before the first durable visit, one
// mid-corpus, and one at the last append — and must replay exactly the
// durable prefix and append exactly the visits the kill lost.
func TestResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven full studies")
	}
	const seed = 11
	base, rawBase := runManifest(t, storeCfg(seed, t.TempDir()))
	if base.Provenance.Store == nil || base.Provenance.Store.Entries == 0 {
		t.Fatal("store-backed run recorded no store info in its manifest")
	}
	total := base.Provenance.Store.Entries

	kills := []struct {
		name  string
		after int
		torn  bool
	}{
		{"first-append", 1, false},
		{"mid-corpus", total / 2, true},
		{"last-visit", total, true},
	}
	for _, k := range kills {
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()

			// Run 1: the kill poisons the store at the seeded append; the
			// process survives (Exit nil) but nothing persists past the kill,
			// leaving the directory exactly as a crash would.
			cfg := storeCfg(seed, dir)
			cfg.StoreKill = &store.KillSwitch{After: k.after, Torn: k.torn}
			st, err := NewStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Run(t.Context()); err != nil {
				st.Close()
				t.Fatal(err)
			}
			durable := st.VisitStore().Len()
			st.Close()
			if durable >= total {
				t.Fatalf("kill at append %d left %d durable entries, want < %d", k.after, durable, total)
			}

			// Run 2: resume replays the durable prefix and crawls the rest.
			rcfg := storeCfg(seed, dir)
			rcfg.StoreResume = true
			resumed, rawResumed := runManifest(t, rcfg)
			if !bytes.Equal(rawBase, rawResumed) {
				var buf bytes.Buffer
				provenance.Diff(base.Provenance, resumed.Provenance).Format(&buf)
				t.Fatalf("resumed manifest differs from uninterrupted run:\n%s", buf.String())
			}
			if resumed.Provenance.Store.Entries != total {
				t.Fatalf("resumed store holds %d entries, want %d", resumed.Provenance.Store.Entries, total)
			}
			// A durable visit is never refetched. A dropped durable visit
			// would be re-crawled identically, so only the counts show it.
			replayed := resumed.Metrics.Counter("store_replay_records_total").Value()
			appended := resumed.Metrics.Counter("store_append_total").Value()
			if int(replayed) != durable || int(appended) != total-durable {
				t.Errorf("resume replayed %d and appended %d entries, want %d and %d",
					replayed, appended, durable, total-durable)
			}
		})
	}
}

// TestResumeFingerprintMismatch: pointing a resume at a store written
// under a different configuration must refuse with the typed error
// (which cmd/pornstudy maps to exit code 2), not silently mix runs.
func TestResumeFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStudy(storeCfg(11, dir))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	cfg := storeCfg(12, dir) // different seed -> different fingerprint
	cfg.StoreResume = true
	if _, err := NewStudy(cfg); !errors.Is(err, store.ErrFingerprintMismatch) {
		t.Fatalf("resume with mismatched config: err = %v, want ErrFingerprintMismatch", err)
	}
}

// TestStoreDirRefusedWithoutResume: reusing a store directory without
// asking for a resume is refused rather than silently appended to.
func TestStoreDirRefusedWithoutResume(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStudy(storeCfg(11, dir))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := NewStudy(storeCfg(11, dir)); !errors.Is(err, store.ErrExists) {
		t.Fatalf("fresh open of existing store: err = %v, want ErrExists", err)
	}
}
