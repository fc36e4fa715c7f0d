package core

import (
	"bytes"
	"context"
	"encoding/json"
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

// probeStage is the key space of the durable TLS probe outcomes.
var probeStage = probeKey("").Stage

// countEntries counts the entries of one key space in an open store.
func countEntries(t *testing.T, s store.Store, stage string) int {
	t.Helper()
	n := 0
	if err := s.Scan(store.StagePrefix(stage), func(store.Key, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestResumeEquivalence is the crash-safety property in miniature: a
// store-backed run killed at a seeded append, then resumed against the
// surviving directory, must produce a manifest byte-identical to an
// uninterrupted run — for a kill before the first durable entry (a
// sanitisation verdict), one halfway through the entries, one after the
// last crawl append with half the TLS probes durable, and one at the
// last append — and must replay exactly the durable prefix and append
// exactly the entries the kill lost.
func TestResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine full studies")
	}
	const seed = 11
	baseDir := t.TempDir()
	base, rawBase := runManifest(t, storeCfg(seed, baseDir))
	if base.Provenance.Store == nil || base.Provenance.Store.Entries == 0 {
		t.Fatal("store-backed run recorded no store info in its manifest")
	}
	total := base.Provenance.Store.Entries
	ref, err := store.Open(baseDir, store.Options{Fingerprint: base.fingerprint, Seed: seed, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	probes := countEntries(t, ref, probeStage)
	ref.Close()
	if probes < 4 {
		t.Fatalf("base run persisted %d TLS probes, too few to kill mid-probe", probes)
	}

	kills := []struct {
		name  string
		after int
		torn  bool
		// midProbe runs one stage at a time, so every crawl stage appends
		// before the first probe, and requires the kill to leave part of
		// the probes durable and lose the rest.
		midProbe bool
	}{
		{"first-append", 1, false, false},
		{"mid-corpus", total / 2, true, false},
		{"mid-probe", total - probes/2, true, true},
		{"last-visit", total, true, false},
	}
	for _, k := range kills {
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()

			// Run 1: the kill poisons the store at the seeded append; the
			// process survives (Exit nil) but nothing persists past the kill,
			// leaving the directory exactly as a crash would.
			cfg := storeCfg(seed, dir)
			cfg.StoreKill = &store.KillSwitch{After: k.after, Torn: k.torn}
			if k.midProbe {
				cfg.StageWorkers = 1
			}
			st, err := NewStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Run(t.Context()); err != nil {
				st.Close()
				t.Fatal(err)
			}
			durable := st.VisitStore().Len()
			durableProbes := countEntries(t, st.VisitStore(), probeStage)
			st.Close()
			if durable >= total {
				t.Fatalf("kill at append %d left %d durable entries, want < %d", k.after, durable, total)
			}
			if k.midProbe && (durable-durableProbes != total-probes || durableProbes == 0 || durableProbes >= probes) {
				t.Fatalf("kill at append %d left %d of %d other entries and %d of %d probes durable, want all and some",
					k.after, durable-durableProbes, total-probes, durableProbes, probes)
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
			// A durable entry is never measured again. A dropped durable
			// entry would be remeasured identically, so only the counts show
			// it.
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

// counterTotal sums every series of one counter family.
func counterTotal(st *Study, name string) uint64 {
	var n uint64
	for _, p := range st.Metrics.Snapshot().Points {
		if p.Name == name && p.Kind == "counter" {
			n += p.Count
		}
	}
	return n
}

// TestResumeFromCompleteStoreIsOffline: resuming against a store that
// holds every entry of the study replays all of it. The webserver mints
// no certificate and completes no handshake, the crawler sends no
// request, and the manifest is the uninterrupted run's.
func TestResumeFromCompleteStoreIsOffline(t *testing.T) {
	dir := t.TempDir()
	_, rawBase := runManifest(t, storeCfg(2019, dir))
	cfg := storeCfg(2019, dir)
	cfg.StoreResume = true
	resumed, raw := runManifest(t, cfg)
	if !bytes.Equal(rawBase, raw) {
		t.Fatal("resumed manifest differs from the run that wrote the store")
	}
	for _, name := range []string{
		"webserver_certs_minted_total",
		"webserver_tls_handshakes_total",
		"crawler_requests_total",
		"store_append_total",
	} {
		if n := counterTotal(resumed, name); n != 0 {
			t.Errorf("resume from a complete store: %s = %d, want 0", name, n)
		}
	}
}

// TestReplayedProbesMatchLive: every TLS probe a store-backed run
// persisted decodes to exactly what a live handshake with that host
// shows, so a resumed run's analyses read the answers a live run would.
func TestReplayedProbesMatchLive(t *testing.T) {
	dir := t.TempDir()
	runManifest(t, storeCfg(2019, dir))
	cfg := storeCfg(2019, dir)
	cfg.StoreResume = true
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var ok, failed int
	err = st.VisitStore().Scan(store.StagePrefix(probeStage), func(k store.Key, raw []byte) error {
		var replayed tlsProbe
		if err := json.Unmarshal(raw, &replayed); err != nil {
			return err
		}
		if live := st.handshake(t.Context(), k.Site); live != replayed {
			t.Errorf("%s: replayed probe %+v, live handshake %+v", k.Site, replayed, live)
		}
		if replayed.OK {
			ok++
		} else {
			failed++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok == 0 || failed == 0 {
		t.Errorf("store holds %d completed and %d failed probes, want both kinds", ok, failed)
	}
}

// TestDurableSanitizeVerdicts: a sanitisation verdict is persisted once
// measured, failed fetches included, and read back instead of fetched
// again; a fetch cut short by the run's own cancellation is not a
// verdict and leaves no entry.
func TestDurableSanitizeVerdicts(t *testing.T) {
	st, err := NewStudy(storeCfg(2019, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sess, err := st.session("ES", "sanitize")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	verdict := func(ctx context.Context, host string) sanitizeVerdict {
		return durableMeasure(st, sanitizeKey(host), func() (sanitizeVerdict, bool) { return sanitize(ctx, sess, host) })
	}

	cancelled, cancel := context.WithCancel(t.Context())
	cancel()
	if v := verdict(cancelled, "pornhub.com"); v.OK {
		t.Errorf("verdict under a cancelled run = %+v, want a failed fetch", v)
	}
	if st.VisitStore().Has(sanitizeKey("pornhub.com")) {
		t.Fatal("a fetch cancelled by the run was persisted as a verdict")
	}
	for host, want := range map[string]sanitizeVerdict{
		"pornhub.com":          {OK: true, Porn: true},
		"no-such-host.example": {},
	} {
		if v := verdict(t.Context(), host); v != want {
			t.Errorf("%s: verdict %+v, want %+v", host, v, want)
		}
		if !st.VisitStore().Has(sanitizeKey(host)) {
			t.Errorf("%s: measured verdict not persisted", host)
		}
		replayed := durableMeasure(st, sanitizeKey(host), func() (sanitizeVerdict, bool) {
			t.Errorf("%s: durable verdict measured again", host)
			return sanitizeVerdict{}, false
		})
		if replayed != want {
			t.Errorf("%s: replayed verdict %+v, want %+v", host, replayed, want)
		}
	}
}
