// Package provenance gives every study run a verifiable identity: stable
// content digests for corpora, crawl logs and analysis outputs, a
// Recorder that stages feed as they complete, a Manifest written next to
// the report, and a Diff that compares two manifests and walks the stage
// DAG back to the earliest diverging stage — turning "the numbers
// changed" into "the numbers changed because crawl/porn-ES changed".
//
// Manifests are byte-deterministic: two runs with the same config, seed
// and corpus produce identical manifest.json files, so a plain byte
// comparison (or the studydiff tool) works as a CI determinism gate.
// Everything volatile — wall-clock stage timings, start time — lives in a
// separate runinfo.json sidecar that diffing ignores.
package provenance

import (
	"encoding/json"
	"fmt"
)

// HashJSON digests v's JSON rendering with FNV-1a 64. encoding/json
// renders map keys in sorted order, so the digest is stable for any value
// whose JSON form is deterministic. The returned form is 16 hex digits.
func HashJSON(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("provenance: hash: %w", err)
	}
	return fmt.Sprintf("%016x", NewHasher().AddBytes(raw).Sum64()), nil
}

// HashString digests a single string with FNV-1a 64.
func HashString(s string) uint64 { return NewHasher().AddString(s).Sum64() }

// Hasher streams FNV-1a 64 over the parts of one record in place:
// feeding it strings and byte slices in order digests their
// concatenation without building or copying it.
type Hasher uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewHasher starts an empty FNV-1a 64 digest.
func NewHasher() Hasher { return fnvOffset64 }

// AddString folds s into the digest.
func (h Hasher) AddString(s string) Hasher {
	for i := 0; i < len(s); i++ {
		h = (h ^ Hasher(s[i])) * fnvPrime64
	}
	return h
}

// AddBytes folds b into the digest.
func (h Hasher) AddBytes(b []byte) Hasher {
	for _, c := range b {
		h = (h ^ Hasher(c)) * fnvPrime64
	}
	return h
}

// Sum64 returns the digest.
func (h Hasher) Sum64() uint64 { return uint64(h) }

// MultisetHash accumulates an order-independent digest over a set of
// records: the wrapping sum of each record's FNV-1a 64 hash, folded with
// the record count. Two record streams digest equal iff they contain the
// same records with the same multiplicities, regardless of order — so a
// crawl log digested under a concurrent schedule matches the same log
// digested serially.
type MultisetHash struct {
	sum uint64
	n   uint64
}

// Add folds one record into the multiset.
func (m *MultisetHash) Add(record string) {
	m.sum += HashString(record)
	m.n++
}

// AddHash folds one record already digested with Hasher (or
// HashString) into the multiset: AddHash(HashString(r)) is Add(r).
func (m *MultisetHash) AddHash(h uint64) {
	m.sum += h
	m.n++
}

// Remove folds one previously added record back out, inverting Add —
// the sum is wrapping addition, so subtraction is exact. Removing a
// record that was never added corrupts the digest; callers own that
// invariant (the store uses Remove only to supersede a replayed
// duplicate it just re-read).
func (m *MultisetHash) Remove(record string) {
	m.sum -= HashString(record)
	m.n--
}

// Merge folds another multiset into this one — the commutative merge
// underlying sharded crawls: digesting each shard's records separately
// and merging equals digesting all records in one pass, in any order.
func (m *MultisetHash) Merge(o *MultisetHash) {
	m.sum += o.sum
	m.n += o.n
}

// Count returns how many records were added.
func (m *MultisetHash) Count() int { return int(m.n) }

// Sum returns the digest as 16 hex digits.
func (m *MultisetHash) Sum() string {
	// Mix the count in so {a} and {a, ""} with a zero-hash filler differ.
	return fmt.Sprintf("%016x", m.sum^(m.n*0x9e3779b97f4a7c15))
}
