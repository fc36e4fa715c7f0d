// Package shard scales the crawl past one process: a coordinator
// partitions a crawl stage's host list by registrable domain into N
// shards, ships each shard as an assignment to a worker — in-process
// for tests and benchmarks, or a separate process over loopback HTTP —
// and merges the per-shard partial results order-independently into
// exactly what a serial crawl of the full host list would have
// produced. The proof obligation is `sharded == serial`, byte-identical
// at the run-manifest level; the equivalence harness at the repo root
// and the `make shardci` multi-process gate both enforce it.
//
// The design leans on two proven primitives. Workers return each
// completed visit in the durable store's serialized entry form (a pure
// function of seed, config and site), so the coordinator folds worker
// results back into a crawl stage through the same replay path a
// crash-resumed run uses — machinery the crash-safety gate already
// holds to byte-identity. And every shard carries an order-independent
// multiset digest over its entries, the commutative-merge verification
// primitive: the coordinator recomputes and checks it on ingestion
// (detecting wire corruption and nondeterministic workers), and the
// merged digests land in a per-run shard manifest sidecar.
//
// Worker failure is survivable: a worker whose assignment errors is
// retired from the fleet and its shard is reassigned to a surviving
// worker. Because a shard's result is deterministic, the recovered
// run's merged output — and therefore its manifest — is identical to
// an uninterrupted one. The seeded KillSwitch injects exactly this
// failure for the reassignment tests.
package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"pornweb/internal/domain"
	"pornweb/internal/provenance"
)

// Typed errors. Callers branch on these with errors.Is.
var (
	// ErrBadFrame: a wire frame is torn, truncated, or corrupt (bad
	// magic, impossible length, CRC mismatch, unparsable payload), or a
	// result does not answer its assignment (wrong stage or shard, or a
	// missing, repeated or unassigned site).
	ErrBadFrame = errors.New("shard: bad frame")
	// ErrFingerprintMismatch: a worker was handed an assignment from a
	// study configuration it was not built for.
	ErrFingerprintMismatch = errors.New("shard: config fingerprint mismatch")
	// ErrDigestMismatch: a shard result's entries do not digest to the
	// digest the worker claimed — wire corruption past the CRC, or a
	// nondeterministic worker.
	ErrDigestMismatch = errors.New("shard: result digest mismatch")
	// ErrWorkerKilled: the seeded kill switch fired mid-shard.
	ErrWorkerKilled = errors.New("shard: worker killed by crash injection")
	// ErrNoWorkers: every worker has been retired and shards remain.
	ErrNoWorkers = errors.New("shard: no live workers remain")
	// ErrDuplicateShard: two results arrived for the same shard index of
	// one dispatch — a requeue accounting bug, never tolerated silently.
	ErrDuplicateShard = errors.New("shard: duplicate shard result")
	// ErrClosed: the coordinator has been closed.
	ErrClosed = errors.New("shard: coordinator closed")
)

// Assignment is one shard of one crawl stage: the unit of work a
// coordinator ships to a worker. Fingerprint and Seed bind the
// assignment to a study configuration exactly as the durable store's
// segment header does — a worker built from a different config refuses
// the work rather than silently measuring a different study.
type Assignment struct {
	// Stage is the pipeline stage name, e.g. "crawl/porn-ES".
	Stage string `json:"stage"`
	// Corpus is the corpus being crawled: "porn", "reference".
	Corpus string `json:"corpus"`
	// Vantage is the crawl's vantage country code.
	Vantage string `json:"vantage"`
	// Interactive selects the Selenium-analog interactive crawl instead
	// of the instrumented page crawl.
	Interactive bool `json:"interactive,omitempty"`
	// Shard is this assignment's index in [0, Shards).
	Shard int `json:"shard"`
	// Shards is the stage's total shard count.
	Shards int `json:"shards"`
	// Fingerprint is the study's config fingerprint; Seed its
	// generation seed. Workers verify both before crawling.
	Fingerprint string `json:"fingerprint"`
	Seed        int64  `json:"seed"`
	// Hosts is the shard's site list, in the stage's visit order.
	Hosts []string `json:"hosts"`
	// TraceID and ParentSpan propagate the coordinator's trace context:
	// the run-level trace ID and the dispatch span this assignment hangs
	// under, so the worker's spans stitch into the coordinator's causal
	// tree. Telemetry asks the worker to return its observability delta
	// in the Result. All three are omitempty, so a new coordinator's
	// frames decode cleanly on an old worker and vice versa — the codec's
	// JSON payload is the versioning seam.
	TraceID    string `json:"trace_id,omitempty"`
	ParentSpan uint64 `json:"parent_span,omitempty"`
	Telemetry  bool   `json:"telemetry,omitempty"`
}

// Entry is one completed visit in its durable serialized form: the
// exact bytes the coordinator's store would persist for the site.
type Entry struct {
	Site string `json:"site"`
	Raw  []byte `json:"raw"`
}

// Result is a worker's answer to one assignment: every visit of the
// shard as a serialized entry, plus the order-independent multiset
// digest over them that the coordinator re-verifies on ingestion.
type Result struct {
	Stage string `json:"stage"`
	Shard int    `json:"shard"`
	// Worker names the worker that produced the result — volatile
	// (reassignment changes it), excluded from the digest.
	Worker string `json:"worker,omitempty"`
	// Entries is sorted by site so a result's wire encoding is
	// deterministic.
	Entries []Entry `json:"entries"`
	Digest  string  `json:"digest"`
	// Telemetry is the worker's observability sidecar for this shard —
	// metric deltas, sampled spans, flight events. Like Worker it is
	// volatile and excluded from the digest (ComputeDigest folds entries
	// only), so a truncated or absent snapshot degrades the fleet view
	// without touching data equivalence.
	Telemetry *Telemetry `json:"telemetry,omitempty"`
}

// ComputeDigest folds every entry into an order-independent multiset
// digest: the value workers stamp into Result.Digest and the
// coordinator re-derives to verify the wire payload.
func (r *Result) ComputeDigest() string {
	m := r.entrySum()
	return m.Sum()
}

// entrySum is the multiset of the result's entries, each hashed once
// in place as site, a 0x1f separator, then the raw bytes.
func (r *Result) entrySum() provenance.MultisetHash {
	var m provenance.MultisetHash
	for _, e := range r.Entries {
		m.AddHash(provenance.NewHasher().AddString(e.Site).AddString("\x1f").AddBytes(e.Raw).Sum64())
	}
	return m
}

// SortEntries orders the entries by site, the canonical wire order.
func (r *Result) SortEntries() {
	sort.Slice(r.Entries, func(i, j int) bool { return r.Entries[i].Site < r.Entries[j].Site })
}

// Partition splits hosts into n shards keyed by registrable domain:
// every host sharing an eTLD+1 lands in the same shard (one site's
// subresource hosts stay with it), assignment is a pure function of
// the domain — independent of host order, worker count, and previous
// dispatches — and each shard preserves the caller's host order. n < 1
// is treated as 1.
func Partition(hosts []string, n int) [][]string {
	if n < 1 {
		n = 1
	}
	out := make([][]string, n)
	for _, h := range hosts {
		i := int(provenance.HashString(domain.Base(h)) % uint64(n))
		out[i] = append(out[i], h)
	}
	return out
}

// KillSwitch injects a worker death at a seeded visit for the
// reassignment tests: the After-th visit the worker performs fails the
// whole assignment with ErrWorkerKilled, and every later assignment
// fails too — the worker is dead, exactly as a crashed process would
// be. With Exit set the process genuinely dies (the worker binary's
// -shard-kill-visits flag); with Exit nil the failure stays in-process
// so tests can kill and reassign without forking.
type KillSwitch struct {
	// After fires the kill on the After-th visit (1-based).
	After int
	// Exit, when non-nil, is called with status 137 when the kill fires.
	Exit func(code int)

	mu     sync.Mutex
	visits int
	dead   bool
}

// Visit records one visit against the switch and returns
// ErrWorkerKilled once the seeded kill has fired. A nil switch admits
// everything.
func (k *KillSwitch) Visit() error {
	if k == nil {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.dead {
		return ErrWorkerKilled
	}
	k.visits++
	if k.After > 0 && k.visits >= k.After {
		k.dead = true
		if k.Exit != nil {
			k.Exit(137)
		}
		return ErrWorkerKilled
	}
	return nil
}

// Dead reports whether the kill has fired.
func (k *KillSwitch) Dead() bool {
	if k == nil {
		return false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.dead
}

// validate checks a result against its assignment before it may enter
// the merge: right stage and shard, exactly one entry per assigned
// host, and the digest the worker claimed. It returns the entries'
// multiset so the merge folds the sum validation already computed.
func (r *Result) validate(a Assignment) (provenance.MultisetHash, error) {
	var none provenance.MultisetHash
	if r.Stage != a.Stage || r.Shard != a.Shard {
		return none, fmt.Errorf("shard: result for %s/%d answers assignment %s/%d: %w",
			r.Stage, r.Shard, a.Stage, a.Shard, ErrBadFrame)
	}
	seen := make(map[string]bool, len(a.Hosts))
	for _, h := range a.Hosts {
		seen[h] = false
	}
	for _, e := range r.Entries {
		done, assigned := seen[e.Site]
		if !assigned {
			return none, fmt.Errorf("shard: result entry for unassigned site %q: %w", e.Site, ErrBadFrame)
		}
		if done {
			return none, fmt.Errorf("shard: result repeats site %q: %w", e.Site, ErrBadFrame)
		}
		seen[e.Site] = true
	}
	if len(r.Entries) != len(seen) {
		return none, fmt.Errorf("shard: %s shard %d answers %d of %d assigned sites: %w",
			r.Stage, r.Shard, len(r.Entries), len(seen), ErrBadFrame)
	}
	sum := r.entrySum()
	if got := sum.Sum(); got != r.Digest {
		return none, fmt.Errorf("shard: %s shard %d digests %s, worker claimed %s: %w",
			r.Stage, r.Shard, got, r.Digest, ErrDigestMismatch)
	}
	return sum, nil
}
