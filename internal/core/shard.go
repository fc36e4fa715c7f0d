package core

import (
	"context"
	"encoding/json"
	"fmt"

	"pornweb/internal/provenance"
	"pornweb/internal/shard"
)

// Fingerprint exposes the study's config fingerprint — the identity
// every shard assignment and the durable store are bound to. Worker
// processes use it to refuse assignments from a foreign configuration.
func (st *Study) Fingerprint() string { return st.fingerprint }

// Coordinator exposes the shard coordinator, nil unless Cfg.Shards > 1.
func (st *Study) Coordinator() *shard.Coordinator { return st.coord }

// RunShard implements shard.Runner: visit every host of the assignment
// with this study's browser and return each completed visit in its
// durable serialized form — the exact bytes a serial store-backed run
// would persist for that site. Entries are a pure function of (seed,
// config, site): visits use per-site cookie jars and sessions record
// per-site, so the bytes are independent of which worker ran the
// shard, of visit order, and of what other shards run concurrently.
// That purity is what makes the coordinator's merge reproduce a serial
// run byte for byte.
//
// Hosts are visited sequentially — shard fan-out, not intra-shard
// concurrency, is the parallelism knob — and kill.Visit() is consulted
// before each one, so a seeded worker death fails the whole assignment
// at a deterministic visit.
func (st *Study) RunShard(ctx context.Context, a shard.Assignment, kill *shard.KillSwitch) (*shard.Result, error) {
	if a.Fingerprint != st.fingerprint || a.Seed != int64(st.Cfg.Params.Seed) {
		return nil, fmt.Errorf("core: assignment fingerprint %s seed %d, study is %s seed %d: %w",
			a.Fingerprint, a.Seed, st.fingerprint, st.Cfg.Params.Seed, shard.ErrFingerprintMismatch)
	}
	s := crawlStage{name: a.Stage, corpus: a.Corpus, vantage: a.Vantage, interactive: a.Interactive}
	sess, b, err := st.stageBrowser(s)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	res := &shard.Result{Stage: a.Stage, Shard: a.Shard}
	for _, h := range a.Hosts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := kill.Visit(); err != nil {
			return nil, err
		}
		raw, err := json.Marshal(s.durableEntry(ctx, b, h))
		if err != nil {
			return nil, fmt.Errorf("core: serialize visit %s: %w", h, err)
		}
		res.Entries = append(res.Entries, shard.Entry{Site: h, Raw: raw})
	}
	res.SortEntries()
	res.Digest = res.ComputeDigest()
	return res, nil
}

// dispatchShards runs one crawl stage's pending hosts through the
// coordinator: partition by registrable domain, dispatch across the
// fleet, and return the merged site→entry map. The per-shard digests
// land in the shards.json sidecar via recordShardStage; the caller
// decodes the entries with foldShardEntries, and foldStage folds them
// like every other visit of the stage.
func (st *Study) dispatchShards(ctx context.Context, s crawlStage, hosts []string) (map[string][]byte, error) {
	if st.Cfg.CoordinatorAddr != "" {
		if err := st.coord.WaitWorkers(ctx, 0); err != nil {
			return nil, err
		}
	}
	parts := shard.Partition(hosts, st.Cfg.Shards)
	assignments := make([]shard.Assignment, len(parts))
	for i, p := range parts {
		assignments[i] = shard.Assignment{
			Stage:       s.name,
			Corpus:      s.corpus,
			Vantage:     s.vantage,
			Interactive: s.interactive,
			Shard:       i,
			Shards:      len(parts),
			Fingerprint: st.fingerprint,
			Seed:        int64(st.Cfg.Params.Seed),
			Hosts:       p,
		}
	}
	merged, err := st.coord.Dispatch(ctx, assignments)
	if err != nil {
		return nil, fmt.Errorf("core: dispatch %s: %w", s.name, err)
	}
	st.recordShardStage(s.name, merged)
	st.Log.Infof("shard: %s merged %d entries from %d shards", s.name, merged.Count, len(parts))
	return merged.Entries, nil
}

// foldShardEntries decodes the merged worker entries into the stage's
// entry map, through the same decoder the resume path uses, and, when
// a store is open, persists each site's bytes as the worker sent them,
// so the durable log comes out byte-identical to a serial store-backed
// run's. The coordinator has already checked that every pending host
// came back exactly once and that the bytes digest as the worker
// claimed; bytes that still do not parse, or a host with no entry,
// fail the stage rather than silently dropping a site. Iteration
// follows the caller's host order.
func (st *Study) foldShardEntries(s crawlStage, hosts []string, raw map[string][]byte, entries map[string]*visitEntry) error {
	for _, h := range hosts {
		b, ok := raw[h]
		if !ok {
			return fmt.Errorf("core: shard merge for %s has no entry for %s", s.name, h)
		}
		e, err := decodeVisitEntry(b, s.interactive)
		if err != nil {
			return fmt.Errorf("core: shard entry for %s/%s: %w", s.name, h, err)
		}
		entries[h] = e
		if st.store != nil {
			st.persistVisit(s.key(h), b, nil)
		}
	}
	return nil
}

// recordShardStage files one sharded stage's per-shard digests for the
// shards.json sidecar.
func (st *Study) recordShardStage(stageName string, merged *shard.Merged) {
	st.shardMu.Lock()
	defer st.shardMu.Unlock()
	if st.shardStages == nil {
		st.shardStages = map[string]provenance.ShardStage{}
	}
	st.shardStages[stageName] = provenance.ShardStage{
		Shards:       len(merged.Shards),
		MergedDigest: merged.Digest,
		Info:         append([]provenance.ShardInfo(nil), merged.Shards...),
	}
}

// ShardManifest assembles the shards.json sidecar from the sharded
// stages recorded so far, or nil for an unsharded run. Per-shard
// digests are a function of the shard count, so they live here rather
// than in the main manifest, which must stay byte-identical between
// serial and sharded runs of the same study.
func (st *Study) ShardManifest() *provenance.ShardManifest {
	st.shardMu.Lock()
	defer st.shardMu.Unlock()
	if len(st.shardStages) == 0 {
		return nil
	}
	stages := make(map[string]provenance.ShardStage, len(st.shardStages))
	for name, s := range st.shardStages {
		stages[name] = s
	}
	return &provenance.ShardManifest{
		Version:           provenance.ShardManifestVersion,
		ConfigFingerprint: st.fingerprint,
		Seed:              int64(st.Cfg.Params.Seed),
		Stages:            stages,
	}
}
