package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pornweb/internal/obs"
)

const testFP = "00ddba11fee1dead"

func testOpts() Options {
	return Options{Fingerprint: testFP, Seed: 2019, SyncEvery: 4}
}

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return l
}

func k(stage, site string) Key {
	return Key{Stage: stage, Corpus: "porn", Vantage: "ES", Site: site}
}

func TestKeyRoundTrip(t *testing.T) {
	in := Key{Stage: "crawl/porn-ES", Corpus: "porn", Vantage: "ES", Site: "tube0001.example"}
	out, err := DecodeKey(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	if _, err := DecodeKey("no-separators"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("malformed key error = %v, want ErrCorrupt", err)
	}
}

func TestAppendGetScan(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOpts())
	defer l.Close()

	sites := []string{"c.example", "a.example", "b.example"}
	for i, site := range sites {
		if err := l.Append(k("crawl/porn-ES", site), []byte(fmt.Sprintf("visit-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append(k("crawl/geo-US", "a.example"), []byte("geo")); err != nil {
		t.Fatal(err)
	}
	if got := l.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if !l.Has(k("crawl/porn-ES", "a.example")) {
		t.Error("Has missed a stored key")
	}
	if l.Has(k("crawl/porn-ES", "zzz.example")) {
		t.Error("Has reported a phantom key")
	}
	val, ok, err := l.Get(k("crawl/porn-ES", "b.example"))
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if string(val) != "visit-2" {
		t.Fatalf("Get = %q, want visit-2", val)
	}

	// Scan is prefix-bounded and sorted.
	var scanned []string
	err = l.Scan(StagePrefix("crawl/porn-ES"), func(key Key, val []byte) error {
		scanned = append(scanned, key.Site+"="+string(val))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a.example=visit-1", "b.example=visit-2", "c.example=visit-0"}
	if len(scanned) != len(want) {
		t.Fatalf("scan = %v, want %v", scanned, want)
	}
	for i := range want {
		if scanned[i] != want[i] {
			t.Fatalf("scan = %v, want %v", scanned, want)
		}
	}
}

func TestResumeReplaysEverything(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOpts())
	for i := 0; i < 37; i++ {
		site := fmt.Sprintf("site-%03d.example", i)
		if err := l.Append(k("crawl/porn-ES", site), bytes.Repeat([]byte{byte(i)}, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	_, wantDigest := l.Digest()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	opts := testOpts()
	opts.Resume = true
	r := mustOpen(t, dir, opts)
	defer r.Close()
	if got := r.Len(); got != 37 {
		t.Fatalf("replayed %d entries, want 37", got)
	}
	n, digest := r.Digest()
	if n != 37 || digest != wantDigest {
		t.Fatalf("replayed digest (%d, %s), want (37, %s)", n, digest, wantDigest)
	}
	val, ok, err := r.Get(k("crawl/porn-ES", "site-017.example"))
	if err != nil || !ok {
		t.Fatalf("Get after replay: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(val, bytes.Repeat([]byte{17}, 117)) {
		t.Fatal("replayed value differs from written value")
	}
	// And the store stays appendable.
	if err := r.Append(k("crawl/porn-ES", "late.example"), []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRefusesExistingWithoutResume(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOpts())
	if err := l.Append(k("s", "a"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOpts()); !errors.Is(err, ErrExists) {
		t.Fatalf("open over existing store = %v, want ErrExists", err)
	}
}

func TestResumeFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOpts())
	if err := l.Append(k("s", "a"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	other := testOpts()
	other.Resume = true
	other.Fingerprint = "feedfacecafebeef"
	if _, err := Open(dir, other); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("mismatched fingerprint = %v, want ErrFingerprintMismatch", err)
	}
	seed := testOpts()
	seed.Resume = true
	seed.Seed = 7
	if _, err := Open(dir, seed); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("mismatched seed = %v, want ErrFingerprintMismatch", err)
	}
}

// TestTornTailTruncated simulates a crash mid-record: everything
// before the torn record replays, the tail is gone, and appends
// continue from the cut.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SyncEvery = 1
	l := mustOpen(t, dir, opts)
	for i := 0; i < 5; i++ {
		if err := l.Append(k("s", fmt.Sprintf("site-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Plant the torn record by hand, then drop the handle without Close
	// (Close would checkpoint; a crash doesn't).
	l.mu.Lock()
	l.active().writeTorn(k("s", "torn").Encode(), bytes.Repeat([]byte("x"), 64))
	l.mu.Unlock()
	l.closeFiles()

	opts.Resume = true
	r := mustOpen(t, dir, opts)
	defer r.Close()
	if got := r.Len(); got != 5 {
		t.Fatalf("replayed %d entries, want 5 (torn tail must not count)", got)
	}
	if r.Has(k("s", "torn")) {
		t.Fatal("torn record replayed as a phantom entry")
	}
	if err := r.Append(k("s", "after"), []byte("w")); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// A second resume sees the truncated-then-appended log as clean.
	rr := mustOpen(t, dir, opts)
	defer rr.Close()
	if got := rr.Len(); got != 6 {
		t.Fatalf("second replay %d entries, want 6", got)
	}
}

// TestReplayBoundsCorruptLength pins that a torn tail whose length
// field claims far more than the file holds is truncated without
// allocating what it claims.
func TestReplayBoundsCorruptLength(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOpts())
	if err := l.Append(k("s", "a"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "seg-000001.wal"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A record header claiming 512 MiB, followed by a few bytes.
	if _, err := f.Write([]byte{0x20, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'x'}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.Resume = true
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := mustOpen(t, dir, opts)
	runtime.ReadMemStats(&after)
	defer r.Close()
	if got := r.Len(); got != 1 {
		t.Fatalf("replayed %d entries, want 1", got)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("replaying a corrupt 512 MiB length allocated %d MiB", grew>>20)
	}
}

// TestKillSwitchInProcess pins the in-process crash injection: the
// Nth append returns ErrKilled, the log is poisoned, and a resumed
// open sees exactly the appends that were durable — including the torn
// record being invisible.
func TestKillSwitchInProcess(t *testing.T) {
	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("torn=%v", torn), func(t *testing.T) {
			dir := t.TempDir()
			opts := testOpts()
			opts.Kill = &KillSwitch{After: 3, Torn: torn}
			l := mustOpen(t, dir, opts)
			var killed int
			for i := 0; i < 5; i++ {
				err := l.Append(k("s", fmt.Sprintf("site-%d", i)), []byte("v"))
				switch {
				case i < 2 && err != nil:
					t.Fatalf("append %d: %v", i, err)
				case i >= 2 && !errors.Is(err, ErrKilled):
					t.Fatalf("append %d after kill = %v, want ErrKilled", i, err)
				case errors.Is(err, ErrKilled):
					killed++
				}
			}
			if killed != 3 {
				t.Fatalf("%d appends returned ErrKilled, want 3 (the kill + the poisoned rest)", killed)
			}
			if err := l.Sync(); !errors.Is(err, ErrKilled) {
				t.Fatalf("Sync on killed store = %v, want ErrKilled", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close on killed store: %v", err)
			}

			ropts := testOpts()
			ropts.Resume = true
			r := mustOpen(t, dir, ropts)
			defer r.Close()
			if got := r.Len(); got != 2 {
				t.Fatalf("resumed with %d entries, want 2 (appends before the kill)", got)
			}
			if r.Has(k("s", "site-2")) {
				t.Fatal("the killed append leaked into the resumed store")
			}
		})
	}
}

// TestKillResumeDigestEqual is the store-level half of the crashsafety
// gate: finishing the same appends across a kill/resume yields the
// same digest as never crashing.
func TestKillResumeDigestEqual(t *testing.T) {
	appendAll := func(l *Log) []error {
		var errs []error
		for i := 0; i < 10; i++ {
			errs = append(errs, l.Append(k("s", fmt.Sprintf("site-%d", i)), []byte(fmt.Sprintf("payload-%d", i))))
		}
		return errs
	}

	// Uninterrupted baseline.
	base := mustOpen(t, t.TempDir(), testOpts())
	for _, err := range appendAll(base) {
		if err != nil {
			t.Fatal(err)
		}
	}
	baseN, baseDigest := base.Digest()
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}

	// Killed at append 6, then resumed; the resumed run skips what is
	// durable (Has) and re-appends the rest — the caller-side protocol
	// CrawlStage follows.
	dir := t.TempDir()
	opts := testOpts()
	opts.Kill = &KillSwitch{After: 6, Torn: true}
	dead := mustOpen(t, dir, opts)
	appendAll(dead)
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}

	ropts := testOpts()
	ropts.Resume = true
	r := mustOpen(t, dir, ropts)
	defer r.Close()
	for i := 0; i < 10; i++ {
		key := k("s", fmt.Sprintf("site-%d", i))
		if r.Has(key) {
			continue
		}
		if err := r.Append(key, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	n, digest := r.Digest()
	if n != baseN || digest != baseDigest {
		t.Fatalf("kill/resume digest (%d, %s) != uninterrupted (%d, %s)", n, digest, baseN, baseDigest)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 1024 // rotate fast
	l := mustOpen(t, dir, opts)
	for i := 0; i < 50; i++ {
		if err := l.Append(k("s", fmt.Sprintf("site-%02d", i)), bytes.Repeat([]byte("x"), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.segments) < 2 {
		t.Fatalf("expected rotation, still %d segment(s)", len(l.segments))
	}
	_, wantDigest := l.Digest()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Fatalf("expected multiple segment files, got %v", names)
	}

	opts.Resume = true
	r := mustOpen(t, dir, opts)
	defer r.Close()
	if got := r.Len(); got != 50 {
		t.Fatalf("replayed %d entries across segments, want 50", got)
	}
	if _, digest := r.Digest(); digest != wantDigest {
		t.Fatal("multi-segment replay digest differs")
	}
	// Values in sealed segments still read back.
	if _, ok, err := r.Get(k("s", "site-00")); err != nil || !ok {
		t.Fatalf("Get from sealed segment: ok=%v err=%v", ok, err)
	}
}

// TestCorruptSealedSegmentIsTyped: damage inside a sealed (non-final)
// segment must be ErrCorrupt, not a silent truncation.
func TestCorruptSealedSegmentIsTyped(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 512
	l := mustOpen(t, dir, opts)
	for i := 0; i < 30; i++ {
		if err := l.Append(k("s", fmt.Sprintf("site-%02d", i)), bytes.Repeat([]byte("y"), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 2 {
		t.Skip("rotation did not trigger at this record size")
	}
	// Flip a byte in the middle of the FIRST segment's record area.
	first := filepath.Join(dir, names[0])
	raw, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	opts.Resume = true
	if _, err := Open(dir, opts); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt sealed segment = %v, want ErrCorrupt", err)
	}
}

func TestCheckpointWritten(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOpts())
	if err := l.Append(k("s", "a"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cp, err := readCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint after Checkpoint()")
	}
	if cp.Fingerprint != testFP || cp.Seed != 2019 || cp.Entries != 1 {
		t.Fatalf("checkpoint = %+v", cp)
	}
	_, wantDigest := l.Digest()
	if cp.Digest != wantDigest {
		t.Fatalf("checkpoint digest %s != live digest %s", cp.Digest, wantDigest)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	l := mustOpen(t, t.TempDir(), testOpts())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(k("s", "a"), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after close = %v, want ErrClosed", err)
	}
	if _, _, err := l.Get(k("s", "a")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close = %v, want ErrClosed", err)
	}
	if err := l.Scan("", func(Key, []byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Scan after close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
}

func TestMetricsRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	opts := testOpts()
	opts.Metrics = reg
	l := mustOpen(t, dir, opts)
	for i := 0; i < 8; i++ {
		if err := l.Append(k("s", fmt.Sprintf("site-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store_append_total").Value(); got != 8 {
		t.Fatalf("store_append_total = %d, want 8", got)
	}
	if got := reg.Counter("store_sync_total").Value(); got == 0 {
		t.Fatal("store_sync_total never incremented")
	}

	ropts := testOpts()
	ropts.Metrics = reg
	ropts.Resume = true
	r := mustOpen(t, dir, ropts)
	defer r.Close()
	if got := reg.Counter("store_replay_records_total").Value(); got != 8 {
		t.Fatalf("store_replay_records_total = %d, want 8", got)
	}
}

// TestStoreInterface pins that *Log satisfies Store.
var _ Store = (*Log)(nil)
