package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"pornweb/internal/browser"
	"pornweb/internal/crawler"
	"pornweb/internal/htmlx"
	"pornweb/internal/obs"
	"pornweb/internal/resilience"
	"pornweb/internal/store"
)

// visitEntry is the durable form of one completed visit: the page (or
// interactive) outcome, the request records the visit generated and
// its terminal request failures by class. One entry is one store
// record under (stage, corpus, vantage, site) and one shard wire entry;
// every crawl stage, whether visited live, replayed from the store or
// merged from shards, is folded from these entries (foldStage). The
// store also holds the study's measurements outside the crawl stages,
// each under its own key space (durableMeasure).
type visitEntry struct {
	Page        *browser.PageVisit        `json:"page,omitempty"`
	Interactive *browser.InteractiveVisit `json:"interactive,omitempty"`
	Records     []crawler.Record          `json:"records,omitempty"`
	Failures    map[string]uint64         `json:"failures,omitempty"`
}

// persistEntry streams one serialized entry into the durable store;
// err is the serialization error, if any. A failure to serialize or
// write is an availability problem, not a measurement: it is logged,
// counted (study_store_visit_errors_total plus the crawl failure
// taxonomy's store-write class) and the study continues — the entry is
// simply not resumable. It must never leak into manifest-digested
// counters, or a disk hiccup would change the study's results.
func (st *Study) persistEntry(k store.Key, raw []byte, err error) {
	if err == nil {
		err = st.store.Append(k, raw)
	}
	if err != nil {
		st.storeErrs.Inc()
		st.Log.Event(obs.LevelWarn, "store append failed; entry not resumable",
			"class", string(resilience.ClassStoreWrite),
			"stage", k.Stage, "site", k.Site, "err", err.Error())
	}
}

// durableMeasure returns the result a previous run persisted under k,
// or runs measure live, persists its result and returns it. It makes
// the study's live measurements outside the crawl stages (TLS probes,
// sanitisation verdicts) durable like the visits: written once,
// replayed on resume, so a resumed run's analyses read the answers the
// interrupted run measured. measure reports whether its result is a
// measurement; a failure is one, but a result cut short by the run's
// own cancellation is not and is returned without being persisted. An
// unreadable entry is measured again. With no store it measures live.
func durableMeasure[T any](st *Study, k store.Key, measure func() (T, bool)) T {
	if st.store == nil {
		v, _ := measure()
		return v
	}
	if raw, ok, err := st.store.Get(k); err == nil && ok {
		var v T
		err := json.Unmarshal(raw, &v)
		if err == nil {
			return v
		}
		st.Log.Event(obs.LevelWarn, "durable measurement unreadable; measuring again",
			"stage", k.Stage, "site", k.Site, "err", err.Error())
	}
	v, keep := measure()
	if keep {
		raw, err := json.Marshal(v)
		st.persistEntry(k, raw, err)
	}
	return v
}

// durableEntry visits one host with the stage's crawler and returns
// the visit in its durable form: the outcome, plus the request records
// and terminal failures the session hands over for the site. TakeVisit
// numbers Seq within the visit, so the stored bytes are a pure function
// of (seed, config, site) and keep the intra-visit order the
// cookie-sync analysis relies on. Live visits, the store and RunShard
// all build through here, so a shard entry is the store record by
// construction.
func (s crawlStage) durableEntry(ctx context.Context, b *browser.Browser, host string) *visitEntry {
	e := &visitEntry{}
	if s.interactive {
		e.Interactive = b.VisitInteractive(ctx, host)
	} else {
		e.Page = b.Visit(ctx, host)
	}
	e.Records, e.Failures = b.Session.TakeVisit(host)
	return e
}

// errWrongKind marks a durable entry of the other visit kind — a page
// entry under an interactive stage or vice versa. loadDurable treats
// it as silently missing; the shard path treats it as a protocol
// violation.
var errWrongKind = errors.New("entry is the wrong visit kind")

// decodeVisitEntry parses serialized visit bytes back into a replayable
// entry of the wanted kind. The DOM is never serialized (parent
// pointers make it cyclic); reparsing the stored HTML reconstructs it
// deterministically. Both the resume path (loadDurable) and the
// sharded merge (foldShardEntries) decode through here, so replayed
// and shard-merged entries are bit-for-bit the same in memory.
func decodeVisitEntry(raw []byte, interactive bool) (*visitEntry, error) {
	var e visitEntry
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("core: decode visit entry: %w", err)
	}
	if interactive {
		if e.Interactive == nil {
			return nil, errWrongKind
		}
	} else {
		if e.Page == nil {
			return nil, errWrongKind
		}
		if e.Page.HTML != "" {
			e.Page.DOM = htmlx.Parse(e.Page.HTML)
		}
	}
	return &e, nil
}

// loadDurable reads back the entries a previous run persisted for one
// stage, keyed by site. Only entries of the wanted kind count (a page
// entry cannot satisfy an interactive stage); anything unreadable is
// treated as missing so the visit is simply redone.
func (st *Study) loadDurable(s crawlStage, hosts []string) map[string]*visitEntry {
	out := map[string]*visitEntry{}
	for _, h := range hosts {
		raw, ok, err := st.store.Get(s.key(h))
		if err != nil || !ok {
			continue
		}
		e, err := decodeVisitEntry(raw, s.interactive)
		if err != nil {
			if !errors.Is(err, errWrongKind) {
				st.Log.Event(obs.LevelWarn, "durable visit unreadable; revisiting",
					"stage", s.name, "site", h, "err", err.Error())
			}
			continue
		}
		out[h] = e
	}
	return out
}

// foldStage builds one crawl stage's result from its per-site durable
// entries, exactly as an uninterrupted serial run measures it, whether
// each visit ran live, was replayed from the store or came back from a
// shard. It walks the caller's host order, never map order: the log
// holds each visit's records in request order with Seq numbered across
// the stage, certificate organizations are read off the records that
// carried one, and per-class request failures are summed over the
// visits. The log is therefore independent of how concurrent visits
// interleaved.
func foldStage(hosts []string, entries map[string]*visitEntry) *stageResult {
	records := 0
	for _, e := range entries {
		records += len(e.Records)
	}
	sr := &stageResult{
		visits:   entries,
		log:      make([]crawler.Record, 0, records),
		certOrgs: map[string]string{},
		failures: map[string]uint64{},
	}
	for _, h := range hosts {
		e := entries[h]
		if e == nil {
			continue
		}
		for _, r := range e.Records {
			r.Seq = len(sr.log) + 1
			sr.log = append(sr.log, r)
			if r.CertOrg != "" {
				sr.certOrgs[r.Host] = r.CertOrg
			}
		}
		for class, n := range e.Failures {
			sr.failures[class] += n
		}
	}
	return sr
}

// hostsToVisit partitions a stage's hosts into those already durable
// in the store (returned as replayed entries, in a map the rest of the
// stage's entries join) and those still to be crawled. With no store
// (or an unnamed stage) everything is pending.
func (st *Study) hostsToVisit(s crawlStage, hosts []string) ([]string, map[string]*visitEntry) {
	if st.store == nil || s.name == "" {
		return hosts, make(map[string]*visitEntry, len(hosts))
	}
	replayed := st.loadDurable(s, hosts)
	if len(replayed) == 0 {
		return hosts, replayed
	}
	pending := make([]string, 0, len(hosts)-len(replayed))
	for _, h := range hosts {
		if replayed[h] == nil {
			pending = append(pending, h)
		}
	}
	st.Log.Infof("store: %s resumes %d/%d visits from durable log", s.name, len(replayed), len(hosts))
	return pending, replayed
}

// checkpointStore syncs and checkpoints the durable store if one is
// open; failures are logged, never fatal — the segments alone are
// authoritative and a resume works without a checkpoint.
func (st *Study) checkpointStore() {
	if st.store == nil {
		return
	}
	if err := st.store.Checkpoint(); err != nil {
		st.storeErrs.Inc()
		st.Log.Event(obs.LevelWarn, "store checkpoint failed",
			"class", string(resilience.ClassStoreWrite), "err", err.Error())
	}
}

// storeInfo exposes the open store's digest for the run manifest;
// (0, "", false) without a store.
func (st *Study) storeInfo() (int, string, bool) {
	if st.store == nil {
		return 0, "", false
	}
	n, digest := st.store.Digest()
	return n, digest, true
}
