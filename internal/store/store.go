// Package store is the study's durable visit log: an embedded,
// stdlib-only, append-only record store that makes a crashed crawl a
// resumable one instead of a total loss. The crawler streams every
// completed visit (its page outcome, request records, and stats) into
// the store as one keyed entry; on restart the log replays, a torn
// tail from a mid-write crash is truncated, and the study re-enters
// the pipeline with only the missing visits. The study's other live
// measurements (corpus sanitisation verdicts, TLS probe outcomes) are
// entries too, each under its own stage name. The run manifest then
// proves the resumed run equal to an uninterrupted one (see the
// crashsafety gate in the Makefile).
//
// On disk a store is a directory of segment files plus a checkpoint:
//
//	seg-000001.wal   append-only segments: a fingerprint header, then
//	                 length-prefixed, CRC-checksummed key/value records
//	                 (record.go; the shard wire carries the same records)
//	checkpoint.json  entry count, content digest, and per-segment
//	                 durable sizes, rewritten atomically on Checkpoint
//
// Writes are buffered and fsync'd in batches (Options.SyncEvery); an
// entry is durable once its batch has synced. Replay trusts nothing:
// every record re-verifies its CRC, and the first incomplete or
// corrupt record in the final segment marks the torn tail — replay
// truncates there and appending continues from the last valid byte.
// Corruption anywhere earlier is a typed error (ErrCorrupt), never a
// panic and never phantom records.
//
// The store is keyed by (stage, corpus, vantage, site) so one study
// writes all its crawl stages into a single log and each stage reads
// back exactly its own visits with a prefix scan. A fingerprint
// header (the PR 4 config fingerprint plus the generation seed) binds
// a store directory to one study configuration: resuming with a
// different config refuses to run rather than silently mixing runs.
package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pornweb/internal/obs"
	"pornweb/internal/provenance"
)

// keySep separates key fields in their encoded form. Stages, corpora,
// vantages and hostnames never contain an ASCII unit separator.
const keySep = "\x1f"

// Key identifies one durable entry: a visit, or another measurement
// filed under its own stage name.
type Key struct {
	Stage   string // pipeline stage name, e.g. "crawl/porn-ES"
	Corpus  string // corpus being crawled: "porn", "reference"
	Vantage string // vantage country code
	Site    string // visited site host
}

// Encode renders the key as a single string with field separators.
func (k Key) Encode() string {
	return k.Stage + keySep + k.Corpus + keySep + k.Vantage + keySep + k.Site
}

// DecodeKey parses an encoded key; it fails on a wrong field count.
func DecodeKey(s string) (Key, error) {
	parts := strings.Split(s, keySep)
	if len(parts) != 4 {
		return Key{}, fmt.Errorf("store: malformed key %q: %w", s, ErrCorrupt)
	}
	return Key{Stage: parts[0], Corpus: parts[1], Vantage: parts[2], Site: parts[3]}, nil
}

// StagePrefix returns the scan prefix selecting every entry of one
// pipeline stage.
func StagePrefix(stage string) string { return stage + keySep }

// Store is the interface the study layers program against: append
// visits as they complete, read them back by key or stage prefix, and
// make the log durable on demand.
type Store interface {
	// Append adds one entry. The write is buffered; it becomes durable
	// with the next batch sync (every Options.SyncEvery appends, on
	// Sync/Checkpoint, and on Close).
	Append(k Key, value []byte) error
	// Get reads one entry's value back from disk.
	Get(k Key) ([]byte, bool, error)
	// Has reports whether an entry is already durable in the log.
	Has(k Key) bool
	// Scan streams every entry whose encoded key starts with prefix, in
	// sorted key order, reading values back from disk one at a time.
	Scan(prefix string, fn func(k Key, value []byte) error) error
	// Len returns the number of live entries.
	Len() int
	// Digest returns the entry count and the order-independent content
	// digest over all entries — the value the run manifest records.
	Digest() (int, string)
	// Sync flushes buffered appends and fsyncs the active segment.
	Sync() error
	// Checkpoint syncs and atomically rewrites checkpoint.json.
	Checkpoint() error
	// Close checkpoints and releases every file handle.
	Close() error
}

// Typed errors. Callers branch on these with errors.Is.
var (
	// ErrFingerprintMismatch: the directory belongs to a different study
	// configuration (config fingerprint or seed differs).
	ErrFingerprintMismatch = errors.New("store: config fingerprint mismatch")
	// ErrCorrupt: a segment is damaged somewhere other than the torn
	// tail of the final segment.
	ErrCorrupt = errors.New("store: corrupt segment")
	// ErrExists: Open without Resume found a non-empty store directory.
	ErrExists = errors.New("store: directory already holds a store")
	// ErrClosed: the store has been closed.
	ErrClosed = errors.New("store: closed")
	// ErrKilled: the crash-injection kill switch fired.
	ErrKilled = errors.New("store: killed by crash injection")
)

// KillSwitch injects a crash at a seeded append for crash-safety
// testing: the Nth append stops mid-write, leaving the log exactly as
// a power cut would. With Exit set (cmd/pornstudy -kill-after-appends)
// the process genuinely dies; with Exit nil the store is poisoned
// instead — the append returns ErrKilled and every later write fails —
// so in-process tests can kill and resume without forking.
type KillSwitch struct {
	// After fires the kill on the After-th append (1-based).
	After int
	// Torn writes a partial record (header plus half the payload) and
	// syncs it before dying, planting the torn tail replay must truncate.
	// Without Torn the kill lands on a clean record boundary.
	Torn bool
	// Exit, when non-nil, is called with status 137 after the torn bytes
	// hit disk. os.Exit makes it a real process kill.
	Exit func(code int)
}

// Options configures Open.
type Options struct {
	// Fingerprint is the study's config fingerprint (16 hex digits from
	// provenance.HashJSON); it is stamped into every segment header and
	// verified on resume. Required.
	Fingerprint string
	// Seed is the generation seed, stored alongside the fingerprint.
	Seed int64
	// Resume opens an existing store (verifying its fingerprint) instead
	// of requiring an empty directory.
	Resume bool
	// SyncEvery batches fsyncs: the active segment is synced after every
	// SyncEvery appends (default 16; 1 syncs every append).
	SyncEvery int
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 64 MiB).
	SegmentBytes int64
	// Metrics, when non-nil, receives append/sync/replay telemetry.
	Metrics *obs.Registry
	// Tracer, when non-nil, records a store/replay span around Open's
	// replay pass.
	Tracer *obs.Tracer
	// Kill is the crash-injection switch (nil in production).
	Kill *KillSwitch
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 16
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

// entryLoc addresses one entry's value bytes inside a segment.
type entryLoc struct {
	seg  int    // index into Log.segments
	off  int64  // offset of the value bytes
	size int    // value length
	sum  uint64 // the record's digest hash (recordSum)
}

// Log is the file-backed Store implementation.
type Log struct {
	dir  string
	opts Options

	mu sync.Mutex
	// guarded by mu
	segments []*segment
	// index maps encoded key -> location.
	// guarded by mu
	index map[string]entryLoc
	// keys caches the sorted encoded keys; rebuilt lazily.
	// guarded by mu
	keys []string
	// guarded by mu
	keysDirty bool
	// guarded by mu
	digest provenance.MultisetHash
	// unsynced counts appends since the last fsync.
	// guarded by mu
	unsynced int
	// appends counts total appends this process (kill-switch clock).
	// guarded by mu
	appends int
	// guarded by mu
	closed bool
	// poisoned is non-nil once a kill or write failure wedges the log.
	// guarded by mu
	poisoned error

	met storeMetrics
}

// storeMetrics holds the store's pre-resolved instruments; all nil
// (no-op) without a registry.
type storeMetrics struct {
	appendN     *obs.Counter
	appendBytes *obs.Counter
	syncN       *obs.Counter
	syncSec     *obs.Histogram
	replayN     *obs.Counter
	truncated   *obs.Counter
	writeErrs   *obs.Counter
}

func newStoreMetrics(reg *obs.Registry) storeMetrics {
	if reg == nil {
		return storeMetrics{}
	}
	reg.Describe("store_append_total", "visit entries appended to the durable log")
	reg.Describe("store_append_bytes_total", "payload bytes appended to the durable log")
	reg.Describe("store_sync_total", "batched fsyncs of the active segment")
	reg.Describe("store_sync_seconds", "duration of one flush+fsync batch")
	reg.Describe("store_replay_records_total", "entries recovered by replay at open")
	reg.Describe("store_replay_truncated_total", "torn tails truncated by replay")
	reg.Describe("store_write_errors_total", "appends or syncs that failed")
	return storeMetrics{
		appendN:     reg.Counter("store_append_total"),
		appendBytes: reg.Counter("store_append_bytes_total"),
		syncN:       reg.Counter("store_sync_total"),
		syncSec:     reg.Histogram("store_sync_seconds", obs.LatencyBuckets),
		replayN:     reg.Counter("store_replay_records_total"),
		truncated:   reg.Counter("store_replay_truncated_total"),
		writeErrs:   reg.Counter("store_write_errors_total"),
	}
}

// Open creates or resumes the store in dir. A fresh open requires the
// directory to be empty of store files unless opts.Resume is set; a
// resume verifies the stored fingerprint and seed against opts,
// replays every segment (re-verifying CRCs), truncates a torn tail in
// the final segment, and leaves the log ready to append.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if opts.Fingerprint == "" {
		return nil, fmt.Errorf("store: open %s: fingerprint required", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		dir:   dir,
		opts:  opts,
		index: map[string]entryLoc{},
		met:   newStoreMetrics(opts.Metrics),
	}
	if len(names) > 0 && !opts.Resume {
		return nil, fmt.Errorf("store: open %s: %w (resume it or remove the directory)", dir, ErrExists)
	}
	if len(names) == 0 {
		if err := l.rotate(); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Resume: verify the checkpoint first (cheap, catches the mismatch
	// before any segment I/O), then replay every segment.
	if cp, err := readCheckpoint(dir); err == nil && cp != nil {
		if cp.Fingerprint != opts.Fingerprint || cp.Seed != opts.Seed {
			return nil, fmt.Errorf("store: %s holds fingerprint %s seed %d, want %s seed %d: %w",
				dir, cp.Fingerprint, cp.Seed, opts.Fingerprint, opts.Seed, ErrFingerprintMismatch)
		}
	}
	if err := l.replayAll(names); err != nil {
		l.closeFiles()
		return nil, err
	}
	return l, nil
}

// replayAll loads every named segment in order, rebuilding the index
// and digest, truncating a torn tail in the final segment.
// guarded by mu
func (l *Log) replayAll(names []string) error {
	var span *obs.Span
	if l.opts.Tracer != nil {
		_, span = l.opts.Tracer.Start(context.Background(), "store/replay")
		defer span.End()
	}
	entries := 0
	for i, name := range names {
		seg, err := openSegment(filepath.Join(l.dir, name), l.opts)
		if err != nil {
			return err
		}
		last := i == len(names)-1
		n, truncated, err := seg.replay(last, func(key string, loc entryLoc) {
			loc.seg = i
			//studylint:ignore locksafe seg.replay invokes this callback synchronously on replayAll's own stack, so the caller-held mu is still held; the closure never escapes
			l.indexPut(key, loc)
		})
		if err != nil {
			seg.close()
			return err
		}
		entries += n
		if truncated {
			l.met.truncated.Inc()
		}
		l.segments = append(l.segments, seg)
	}
	l.met.replayN.Add(uint64(entries))
	if span != nil {
		span.SetAttr("entries", fmt.Sprint(entries))
		span.SetAttr("segments", fmt.Sprint(len(names)))
	}
	return nil
}

// indexPut records one live entry. A re-appended key replaces the old
// location, and the digest swaps the superseded record's hash for the
// new one, so it stays a digest of the live entry set.
// guarded by mu
func (l *Log) indexPut(key string, loc entryLoc) {
	if old, exists := l.index[key]; exists {
		// Duplicate keys cannot happen in normal operation (a visit is
		// appended once), but replay tolerates them: last write wins.
		l.digest.RemoveHash(old.sum)
	}
	l.digest.AddHash(loc.sum)
	l.index[key] = loc
	l.keysDirty = true
}

// Append implements Store.
func (l *Log) Append(k Key, value []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.poisoned != nil {
		return l.poisoned
	}
	l.appends++
	if ks := l.opts.Kill; ks != nil && l.appends == ks.After {
		return l.fireKill(k, value)
	}
	seg := l.active()
	key := k.Encode()
	loc, err := seg.append(key, value)
	if err != nil {
		l.met.writeErrs.Inc()
		l.poisoned = err
		return err
	}
	loc.seg = len(l.segments) - 1
	l.indexPut(key, loc)
	l.met.appendN.Inc()
	l.met.appendBytes.Add(uint64(len(key) + len(keySep) + len(value)))
	l.unsynced++
	if l.unsynced >= l.opts.SyncEvery {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if seg.size >= l.opts.SegmentBytes {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.rotate(); err != nil {
			return err
		}
	}
	return nil
}

// fireKill plants the configured crash: optionally a synced torn
// record, then either process death or a poisoned log.
// guarded by mu
func (l *Log) fireKill(k Key, value []byte) error {
	ks := l.opts.Kill
	seg := l.active()
	// Everything durable so far stays durable, exactly like a real crash
	// after the last completed batch sync.
	_ = seg.flushAndSync()
	if ks.Torn {
		seg.writeTorn(k.Encode(), value)
	}
	l.poisoned = ErrKilled
	if ks.Exit != nil {
		ks.Exit(137)
	}
	return ErrKilled
}

// active returns the segment appends go to.
// guarded by mu
func (l *Log) active() *segment { return l.segments[len(l.segments)-1] }

// rotate seals the active segment and opens a fresh one.
// guarded by mu
func (l *Log) rotate() error {
	name := fmt.Sprintf("seg-%06d.wal", len(l.segments)+1)
	seg, err := createSegment(filepath.Join(l.dir, name), l.opts)
	if err != nil {
		return err
	}
	l.segments = append(l.segments, seg)
	return nil
}

// Get implements Store.
func (l *Log) Get(k Key) ([]byte, bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, false, ErrClosed
	}
	v, ok, err := l.getLocked(k.Encode())
	return v, ok, err
}

// getLocked reads one entry by encoded key.
// guarded by mu
func (l *Log) getLocked(key string) ([]byte, bool, error) {
	loc, ok := l.index[key]
	if !ok {
		return nil, false, nil
	}
	seg := l.segments[loc.seg]
	// Reads go through the OS page cache; flush first so an un-synced
	// buffered append is visible to its own reader.
	if err := seg.flush(); err != nil {
		return nil, false, err
	}
	val, err := seg.readValue(loc.off, loc.size)
	if err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// Has implements Store.
func (l *Log) Has(k Key) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.index[k.Encode()]
	return ok
}

// sortedKeys returns the encoded keys in sorted order, rebuilding the
// cache only after appends changed the key set.
// guarded by mu
func (l *Log) sortedKeys() []string {
	if l.keysDirty {
		l.keys = l.keys[:0]
		for k := range l.index {
			l.keys = append(l.keys, k)
		}
		sort.Strings(l.keys)
		l.keysDirty = false
	}
	return l.keys
}

// Scan implements Store. fn sees entries in sorted key order; a fn
// error aborts the scan and is returned.
func (l *Log) Scan(prefix string, fn func(k Key, value []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	keys := l.sortedKeys()
	start := sort.SearchStrings(keys, prefix)
	for _, key := range keys[start:] {
		if !strings.HasPrefix(key, prefix) {
			break
		}
		k, err := DecodeKey(key)
		if err != nil {
			return err
		}
		val, ok, err := l.getLocked(key)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := fn(k, val); err != nil {
			return err
		}
	}
	return nil
}

// Len implements Store.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.index)
}

// Digest implements Store.
func (l *Log) Digest() (int, string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.digest.Count(), l.digest.Sum()
}

// Sync implements Store.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.poisoned != nil {
		return l.poisoned
	}
	return l.syncLocked()
}

// syncLocked flushes and fsyncs the active segment.
// guarded by mu
func (l *Log) syncLocked() error {
	seg := l.active()
	start := time.Now()
	err := seg.flushAndSync()
	l.met.syncSec.Observe(time.Since(start).Seconds())
	if err != nil {
		l.met.writeErrs.Inc()
		l.poisoned = err
		return err
	}
	l.met.syncN.Inc()
	l.unsynced = 0
	return nil
}

// Checkpoint implements Store.
func (l *Log) Checkpoint() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.poisoned != nil {
		return l.poisoned
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	return l.writeCheckpointLocked()
}

// Close implements Store. Closing a poisoned (killed) log releases
// file handles without checkpointing — the on-disk state must stay
// exactly as the crash left it.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.poisoned == nil {
		if serr := l.syncLocked(); serr != nil {
			err = serr
		} else if cerr := l.writeCheckpointLocked(); cerr != nil {
			err = cerr
		}
	}
	l.closeFiles()
	return err
}

// closeFiles releases every segment handle.
// guarded by mu
func (l *Log) closeFiles() {
	for _, seg := range l.segments {
		seg.close()
	}
}

// segmentNames lists seg-*.wal files in dir, sorted (their zero-padded
// numbering makes lexical order creation order).
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wal") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}
