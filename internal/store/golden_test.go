package store

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pornweb/internal/provenance"
)

// goldenRecords is a fixed append sequence: binary and empty values,
// two stages, and one re-appended key, so the duplicate-key digest
// path is pinned too.
var goldenRecords = []struct {
	key   Key
	value string
}{
	{k("crawl/porn-ES", "a.example"), "visit-a"},
	{k("crawl/porn-ES", "b.example"), "\x00\x01binary\xff"},
	{k("crawl/geo-US", "a.example"), ""},
	{k("crawl/porn-ES", "a.example"), "visit-a-again"},
}

// The on-disk bytes and digest of goldenRecords. A change to either
// breaks every store written before it: resume would refuse or re-crawl
// its entries, and manifests would record a different store digest.
const (
	goldenEntries = 3
	goldenDigest  = "39967606dc13412e"
	goldenSegment = "505753544f5245010000000100000000000007e300103030646462613131666565316465616400000028ec739393001f637261776c2f706f726e2d45531f706f726e1f45531f612e6578616d706c6576697369742d610000002aef26f65f001f637261776c2f706f726e2d45531f706f726e1f45531f622e6578616d706c65000162696e617279ff0000002038f1e5cd001e637261776c2f67656f2d55531f706f726e1f45531f612e6578616d706c650000002e8b550431001f637261776c2f706f726e2d45531f706f726e1f45531f612e6578616d706c6576697369742d612d616761696e"
)

// checkGolden compares a store's digest and first segment against the
// pinned values.
func checkGolden(n int, digest string, seg []byte) error {
	if n != goldenEntries || digest != goldenDigest {
		return fmt.Errorf("digest (%d, %s), want (%d, %s)", n, digest, goldenEntries, goldenDigest)
	}
	if got := hex.EncodeToString(seg); got != goldenSegment {
		return fmt.Errorf("segment bytes\n got %s\nwant %s", got, goldenSegment)
	}
	return nil
}

// TestGoldenSegmentAndDigest pins the record framing and the content
// digest: appending goldenRecords, closing and reopening must give the
// same segment bytes and Digest() as every earlier version of the
// store, both live and after replay.
func TestGoldenSegmentAndDigest(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOpts())
	for _, r := range goldenRecords {
		if err := l.Append(r.key, []byte(r.value)); err != nil {
			t.Fatal(err)
		}
	}
	liveN, liveDigest := l.Digest()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "seg-000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGolden(liveN, liveDigest, seg); err != nil {
		t.Errorf("after append: %v", err)
	}

	opts := testOpts()
	opts.Resume = true
	r := mustOpen(t, dir, opts)
	n, digest := r.Digest()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := checkGolden(n, digest, seg); err != nil {
		t.Errorf("after replay: %v", err)
	}

	// The pin is not vacuous: a digest over other bytes (here the live
	// entries without the key/value separator) fails it.
	var wrong provenance.MultisetHash
	for _, r := range goldenRecords[1:] {
		wrong.Add(r.key.Encode() + r.value)
	}
	if err := checkGolden(wrong.Count(), wrong.Sum(), seg); err == nil {
		t.Error("checkGolden accepted a digest computed over different bytes")
	}
}
