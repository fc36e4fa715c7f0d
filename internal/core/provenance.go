package core

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"pornweb/internal/crawler"
	"pornweb/internal/provenance"
	"pornweb/internal/resilience"
	"pornweb/internal/webgen"
)

// crawlLogDigest digests a crawl stage's request log with an
// order-independent multiset hash, each record's JSON hashed in place.
// Two normalizations apply: Seq is zeroed, and SetCookies is digested
// as a separate deduplicated set of "set-cookie:"-prefixed cookies
// instead of in place. Neither is needed for determinism (foldStage
// numbers Seq in host order, and each visit has its own cookie jar);
// both stay because dropping either would change every crawl-stage
// digest in the golden manifest.
//
// The digest still covers every cookie name, value, host and session
// flag, so a changed cookie changes the digest; only which record of
// the log carried it is forgotten.
func crawlLogDigest(log []crawler.Record) (int, string) {
	var m provenance.MultisetHash
	seenCookie := map[string]bool{}
	for _, r := range log {
		r.Seq = 0
		cs := r.SetCookies
		r.SetCookies = nil
		raw, err := json.Marshal(r)
		if err != nil {
			// Record has no unmarshalable fields; keep the digest total
			// rather than dropping the record if that ever changes.
			raw = []byte(r.URL)
		}
		m.AddHash(provenance.NewHasher().AddBytes(raw).Sum64())
		for _, c := range cs {
			craw, err := json.Marshal(c)
			if err != nil {
				continue
			}
			if seenCookie[string(craw)] {
				continue
			}
			seenCookie[string(craw)] = true
			m.AddHash(provenance.NewHasher().AddString("set-cookie:").AddBytes(craw).Sum64())
		}
	}
	return len(log), m.Sum()
}

// recordCorpusStage records the corpus-compilation stage's provenance:
// the sanitized site lists are its output records.
func (st *Study) recordCorpusStage(c *Corpus) {
	digest, err := provenance.HashJSON(c)
	if err != nil {
		digest = "unhashable"
	}
	st.prov.RecordStage("corpus", len(c.Porn)+len(c.Reference), digest)
}

// configFingerprint digests the parts of the config that determine the
// study's *results*: generator parameters, vantage countries, crawl
// parallelism and timeouts, and the retry policy. The schedule knob
// (StageWorkers) and observability knobs (metrics, tracing, flight
// recorder) are deliberately excluded — they change how a run executes
// and what it records about itself, never what it measures — so runs at
// every stage-worker count share a fingerprint.
func (st *Study) configFingerprint() (string, error) {
	return provenance.HashJSON(struct {
		Params     webgen.Params
		Countries  []string
		Workers    int
		TimeoutMS  int64
		Resilience resilience.Policy
		BudgetMS   int64
	}{
		Params:     st.Cfg.Params,
		Countries:  st.Cfg.Countries,
		Workers:    st.Cfg.Workers,
		TimeoutMS:  st.Cfg.Timeout.Milliseconds(),
		Resilience: st.Cfg.Resilience,
		BudgetMS:   st.Cfg.PageBudget.Milliseconds(),
	})
}

// figSpec maps one manifest figure to the analysis stage that produced it
// and the Results content it renders.
type figSpec struct {
	figure string
	stage  string
	rows   func(*Results) int
	value  func(*Results) any
}

// one is the row count for single-block figures (one table of scalars).
func one(*Results) int { return 1 }

// figureSpecs is the complete figure/table provenance table: every
// rendered artifact, the stage it came from, its row count and the value
// its digest covers. Report renderers and this table must stay in sync;
// the manifest golden test catches drift.
var figureSpecs = []figSpec{
	{"figure1", "analysis/rank-stability",
		func(r *Results) int { return len(r.Figure1.Stats) },
		func(r *Results) any { return r.Figure1 }},
	{"table1", "analysis/owners",
		func(r *Results) int { return len(r.Table1.Rows) },
		func(r *Results) any { return r.Table1 }},
	{"table2", "analysis/third-parties", one,
		func(r *Results) any { return r.Table2 }},
	{"table3", "analysis/third-parties",
		func(r *Results) int { return len(r.Table3) },
		func(r *Results) any {
			return struct {
				Rows        []IntervalRow
				SharedAll   int
				SharedTotal int
			}{r.Table3, r.SharedAllIntervals, r.SharedAllIntervalsTotal}
		}},
	{"figure3", "analysis/organizations",
		func(r *Results) int { return len(r.Figure3) },
		func(r *Results) any {
			return struct {
				Rows            []OrgRow
				AttributionRate float64
				Companies       int
				DisconnectOnly  float64
			}{r.Figure3, r.AttributionRate, r.AttributionCompanies, r.DisconnectOnlyRate}
		}},
	{"cookie_census", "analysis/cookies", one,
		func(r *Results) any { return r.CookieCensus }},
	{"table4", "analysis/cookies",
		func(r *Results) int { return len(r.Table4) },
		func(r *Results) any { return r.Table4 }},
	{"figure4", "analysis/cookie-sync",
		func(r *Results) int { return len(r.Figure4.TopEdges) },
		func(r *Results) any { return r.Figure4 }},
	{"table5", "analysis/fingerprinting", one,
		func(r *Results) any { return r.Fingerprinting }},
	{"table6", "analysis/https", one,
		func(r *Results) any { return r.Table6 }},
	{"malware", "analysis/malware", one,
		func(r *Results) any { return r.Malware }},
	{"table7", "analysis/geo",
		func(r *Results) int { return len(r.Table7.Rows) },
		func(r *Results) any { return r.Table7 }},
	{"table8", "analysis/banners",
		func(*Results) int { return 2 },
		func(r *Results) any {
			return struct{ ES, US BannerCounts }{r.Table8ES, r.Table8US}
		}},
	{"age_verification", "analysis/age-verification",
		func(r *Results) int { return len(r.AgeVerification.Countries) },
		func(r *Results) any { return r.AgeVerification }},
	{"policies", "analysis/policies", one,
		func(r *Results) any { return r.Policies }},
	{"monetization", "analysis/monetization", one,
		func(r *Results) any { return r.Monetization }},
	{"blocking", "analysis/blocking", one,
		func(r *Results) any { return r.Blocking }},
	{"rta", "analysis/rta", one,
		func(r *Results) any { return r.RTA }},
	{"chains", "analysis/chains", one,
		func(r *Results) any { return r.Chains }},
	{"storage", "analysis/storage", one,
		func(r *Results) any { return r.Storage }},
	{"robustness", "analysis/robustness",
		func(r *Results) int { return len(r.Robustness.Rows) },
		func(r *Results) any { return r.Robustness }},
	{"validation", "analysis/validation", one,
		func(r *Results) any { return r.Validation }},
}

// BuildManifest assembles the deterministic run manifest from the
// recorder's crawl-stage digests and the completed Results. Analysis
// stages are digested here — their output is the Results content itself —
// while crawl stages were digested live as their sessions closed. Run
// calls this automatically; it is exported for callers that assemble
// Results through the individual Analyze* entry points.
func (st *Study) BuildManifest(res *Results) (*provenance.Manifest, error) {
	fp, err := st.configFingerprint()
	if err != nil {
		return nil, err
	}
	m := &provenance.Manifest{
		Version:           provenance.ManifestVersion,
		ConfigFingerprint: fp,
		Seed:              int64(st.Cfg.Params.Seed),
		Scale:             st.Cfg.Params.Scale,
		Corpora:           map[string]provenance.CorpusInfo{},
		Stages:            st.prov.Stages(),
		Figures:           map[string]provenance.FigureInfo{},
	}
	if m.Stages == nil {
		m.Stages = map[string]provenance.StageInfo{}
	}
	if res.Corpus != nil {
		for name, list := range map[string][]string{
			"porn":      res.Corpus.Porn,
			"reference": res.Corpus.Reference,
		} {
			digest, err := provenance.HashJSON(list)
			if err != nil {
				return nil, err
			}
			m.Corpora[name] = provenance.CorpusInfo{Count: len(list), Digest: digest}
		}
	}

	// Figures, and from them the analysis stages: a stage's digest folds
	// the digests of every figure it produced (order-independent), its
	// record count their total rows.
	type agg struct {
		hash provenance.MultisetHash
		rows int
	}
	byStage := map[string]*agg{}
	for _, spec := range figureSpecs {
		digest, err := provenance.HashJSON(spec.value(res))
		if err != nil {
			return nil, fmt.Errorf("core: digest %s: %w", spec.figure, err)
		}
		rows := spec.rows(res)
		m.Figures[spec.figure] = provenance.FigureInfo{
			Stages: []string{spec.stage},
			Rows:   rows,
			Digest: digest,
		}
		a := byStage[spec.stage]
		if a == nil {
			a = &agg{}
			byStage[spec.stage] = a
		}
		a.hash.Add(spec.figure + "=" + digest)
		a.rows += rows
	}
	for stage, a := range byStage {
		info := m.Stages[stage]
		info.Records = a.rows
		info.Digest = a.hash.Sum()
		m.Stages[stage] = info
	}

	// The scheduler graph is the pipeline's one declaration of its
	// shape; the manifest publishes its edges so studydiff can walk a
	// divergence back to its origin.
	deps := st.buildPipeline(newPipeState()).Dependencies()
	for name, info := range m.Stages {
		if inputs := deps[name]; len(inputs) > 0 {
			info.Inputs = inputs
			sort.Strings(info.Inputs)
			m.Stages[name] = info
		}
	}

	if len(res.Robustness.VisitFailures) > 0 {
		m.Failures = map[string]int{}
		for class, n := range res.Robustness.VisitFailures {
			m.Failures[class] = n
		}
	}
	if n, digest, ok := st.storeInfo(); ok {
		m.Store = &provenance.StoreInfo{Entries: n, Digest: digest}
	}
	return m, nil
}

// buildRunInfo captures the volatile side of the run just finished:
// wall-clock totals, per-stage timings, the schedule that executed, and
// the flight recorder's sampling counters.
func (st *Study) buildRunInfo(start time.Time) *provenance.RunInfo {
	ri := &provenance.RunInfo{
		StartedAt:    start.UTC(),
		WallMS:       float64(st.clock().Sub(start).Microseconds()) / 1000,
		StageWorkers: st.Cfg.StageWorkers,
	}
	timings := st.prov.Timings()
	if len(timings) > 0 {
		ri.StageWallMS = make(map[string]float64, len(timings))
		for name, d := range timings {
			ri.StageWallMS[name] = float64(d.Microseconds()) / 1000
		}
	}
	ri.FlightSeen, ri.FlightKept, ri.FlightDropped = st.Flight.Stats()
	return ri
}

// WriteProvenance writes manifest.json and runinfo.json into dir. A
// sharded run additionally writes the shards.json sidecar (per-shard
// digests depend on the shard count, so they cannot live in the
// manifest, which must stay byte-identical between serial and sharded
// runs). Run must have completed first.
func (st *Study) WriteProvenance(dir string) error {
	if st.Provenance == nil {
		return fmt.Errorf("core: no provenance recorded: Run has not completed")
	}
	if err := st.Provenance.Write(filepath.Join(dir, "manifest.json")); err != nil {
		return err
	}
	if sm := st.ShardManifest(); sm != nil {
		if err := sm.Write(filepath.Join(dir, "shards.json")); err != nil {
			return err
		}
	}
	if st.RunInfo == nil {
		return nil
	}
	return st.RunInfo.Write(filepath.Join(dir, "runinfo.json"))
}
