package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to the segment replay path as the
// tail of an otherwise valid segment and holds replay to its contract:
// it must either recover cleanly (truncating the tail of the final
// segment) or fail with a typed corruption error — never panic, and
// never surface a record that was not durably written.
//
// The corpus seeds cover the crash shapes the kill switch plants
// (clean boundary, torn header, torn payload) plus bit flips in every
// frame field.
func FuzzReplay(f *testing.F) {
	opts := Options{Fingerprint: "00ddba11fee1dead", Seed: 2019, SyncEvery: 1}

	// Build one valid segment prefix with three known records.
	seedDir := f.TempDir()
	l, err := Open(seedDir, opts)
	if err != nil {
		f.Fatal(err)
	}
	known := map[string]string{}
	for i := 0; i < 3; i++ {
		key := Key{Stage: "s", Corpus: "porn", Vantage: "ES", Site: fmt.Sprintf("site-%d", i)}
		val := fmt.Sprintf("payload-%d", i)
		if err := l.Append(key, []byte(val)); err != nil {
			f.Fatal(err)
		}
		known[key.Encode()] = val
	}
	if err := l.Sync(); err != nil {
		f.Fatal(err)
	}
	l.closeFiles()
	prefix, err := os.ReadFile(filepath.Join(seedDir, "seg-000001.wal"))
	if err != nil {
		f.Fatal(err)
	}

	// Seed corpus: clean end, torn header, torn payload, a full valid
	// record, bit-flipped length/CRC/payload bytes, and a huge length.
	rec := AppendRecord(nil, Key{Stage: "s", Corpus: "porn", Vantage: "ES", Site: "extra"}.Encode(), []byte("v"))
	f.Add([]byte{})
	f.Add(rec[:3])
	f.Add(rec[:len(rec)-1])
	f.Add(rec)
	for _, i := range []int{0, 4, 9, len(rec) - 1} {
		flipped := bytes.Clone(rec)
		flipped[i] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, "seg-000001.wal")
		if err := os.WriteFile(seg, append(bytes.Clone(prefix), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		ropts := opts
		ropts.Resume = true
		ropts.SyncEvery = 1 << 20 // keep the fuzz loop off the fsync path
		r, err := Open(dir, ropts)
		if err != nil {
			// The only acceptable failures are typed.
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFingerprintMismatch) {
				t.Fatalf("untyped replay error: %v", err)
			}
			return
		}
		defer r.Close()
		// The three durable records must all survive, verbatim.
		for ek, want := range known {
			key, err := DecodeKey(ek)
			if err != nil {
				t.Fatal(err)
			}
			got, ok, err := r.Get(key)
			if err != nil || !ok {
				t.Fatalf("durable record %s lost: ok=%v err=%v", ek, ok, err)
			}
			if string(got) != want {
				t.Fatalf("durable record %s = %q, want %q", ek, got, want)
			}
		}
		// No phantom records: anything beyond the durable set must decode
		// as a well-formed key (it framed and CRC'd correctly), and the
		// total can exceed the prefix only via records the tail fully and
		// validly encodes.
		err = r.Scan("", func(key Key, _ []byte) error {
			if key.Stage == "" && key.Corpus == "" && key.Vantage == "" && key.Site == "" {
				return fmt.Errorf("empty key surfaced by replay")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scan after replay: %v", err)
		}
		// And the recovered store must be appendable: replay leaves a
		// usable log, whatever the tail looked like.
		if err := r.Append(Key{Stage: "s", Corpus: "porn", Vantage: "ES", Site: "post"}, []byte("p")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
	})
}
