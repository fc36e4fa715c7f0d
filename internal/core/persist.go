package core

import (
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
// interactive) outcome, the request records the visit generated, its
// aggregated stats and its terminal request failures by class. One
// entry is one store record under (stage, corpus, vantage, site); a
// resumed run rebuilds a crawl stage's full result by replaying these
// entries for the sites already durable and crawling only the rest.
type visitEntry struct {
	Page        *browser.PageVisit        `json:"page,omitempty"`
	Interactive *browser.InteractiveVisit `json:"interactive,omitempty"`
	Records     []crawler.Record          `json:"records,omitempty"`
	Stats       crawler.VisitStats        `json:"stats"`
	Failures    map[string]uint64         `json:"failures,omitempty"`
}

// normalizeRecords strips the volatile parts of a visit's request
// records so the stored bytes are a pure function of (seed, config,
// site): Seq is global log position — scheduling-dependent — and is
// renumbered to the record's position *within the visit* (1-based),
// which preserves the intra-visit ordering the cookie-sync analysis
// relies on while forgetting where concurrent visits interleaved.
func normalizeRecords(recs []crawler.Record) []crawler.Record {
	out := make([]crawler.Record, len(recs))
	for i, r := range recs {
		r.Seq = i + 1
		out[i] = r
	}
	return out
}

// persistVisit streams one completed visit into the durable store. A
// write failure is an availability problem, not a measurement: it is
// logged, counted (store_write_errors_total plus the crawl failure
// taxonomy's store-write class) and the crawl continues — the entry is
// simply not resumable. It must never leak into manifest-digested
// counters, or a disk hiccup would change the study's results.
func (st *Study) persistVisit(k store.Key, e *visitEntry) {
	raw, err := json.Marshal(e)
	if err == nil {
		err = st.store.Append(k, raw)
	}
	if err != nil {
		st.storeErrs.Inc()
		st.Log.Event(obs.LevelWarn, "store append failed; visit not resumable",
			"class", string(resilience.ClassStoreWrite),
			"stage", k.Stage, "site", k.Site, "err", err.Error())
	}
}

// persistRaw streams already-serialized visit bytes into the durable
// store — the sharded path, where the worker marshaled the entry and
// the coordinator persists its exact bytes so the store comes out
// byte-identical to a serial run's. Failure handling matches
// persistVisit: logged, counted, never fatal.
func (st *Study) persistRaw(k store.Key, raw []byte) {
	if err := st.store.Append(k, raw); err != nil {
		st.storeErrs.Inc()
		st.Log.Event(obs.LevelWarn, "store append failed; visit not resumable",
			"class", string(resilience.ClassStoreWrite),
			"stage", k.Stage, "site", k.Site, "err", err.Error())
	}
}

// durableEntry assembles the durable entry for one live visit: the
// visit outcome (span ID zeroed — tracing is volatile), its per-site
// request records, stats and failure counts. The store path and
// RunShard both build through here, so a shard entry is the store
// record by construction.
func durableEntry(v *visitEntry, sess *crawler.Session, site string) *visitEntry {
	e := &visitEntry{
		Records:  normalizeRecords(sess.SiteRecords(site)),
		Stats:    sess.VisitStats(site),
		Failures: sess.SiteFailureCounts(site),
	}
	if v.Page != nil {
		cp := *v.Page
		cp.SpanID = 0
		e.Page = &cp
	}
	if v.Interactive != nil {
		cp := *v.Interactive
		cp.SpanID = 0
		e.Interactive = &cp
	}
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

// mergeReplayed folds the replayed entries of one crawl stage into the
// live session's view, producing exactly what an uninterrupted run
// would have measured: records are appended with fresh Seq numbers
// continuing past the live log (intra-visit order preserved), cert
// organizations are rebuilt from the records that carried them, and
// per-class request failures are added to the session's counters.
// Iteration follows the caller's host order, never map order.
func mergeReplayed(hosts []string, replayed map[string]*visitEntry,
	log []crawler.Record, certOrgs map[string]string, failures map[string]uint64) ([]crawler.Record, map[string]string, map[string]uint64) {
	next := 0
	for _, r := range log {
		if r.Seq > next {
			next = r.Seq
		}
	}
	for _, h := range hosts {
		e := replayed[h]
		if e == nil {
			continue
		}
		for _, r := range e.Records {
			next++
			r.Seq = next
			log = append(log, r)
			if r.CertOrg != "" {
				certOrgs[r.Host] = r.CertOrg
			}
		}
		for class, n := range e.Failures {
			failures[class] += n
		}
	}
	return log, certOrgs, failures
}

// hostsToVisit partitions a stage's hosts into those already durable
// in the store (returned as replayed entries) and those still to be
// crawled. With no store (or an unnamed stage) everything is pending.
func (st *Study) hostsToVisit(s crawlStage, hosts []string) ([]string, map[string]*visitEntry) {
	if st.store == nil || s.name == "" {
		return hosts, nil
	}
	replayed := st.loadDurable(s, hosts)
	if len(replayed) == 0 {
		return hosts, nil
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
