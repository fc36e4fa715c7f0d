package core

import (
	"context"
	"sort"
	"sync"

	"pornweb/internal/crawler"
	"pornweb/internal/htmlx"
	"pornweb/internal/lingo"
	"pornweb/internal/ranking"
	"pornweb/internal/store"
	"pornweb/internal/webgen"
)

// Corpus is the outcome of the Section 3 compilation pipeline.
type Corpus struct {
	// Candidate counts per discovery source (before sanitization).
	FromAggregators int
	FromAlexaAdult  int
	FromKeywords    int
	Candidates      int // union of the three sources

	// Sanitization outcome.
	Unresponsive int // candidates that never answered
	NonPorn      int // responsive candidates whose content is not pornographic
	Porn         []string
	// Reference is the regular-web comparison corpus: popular sites from
	// the rank dataset that are not pornographic.
	Reference []string
}

// CompileCorpus runs the semi-supervised corpus compilation: merge the
// three discovery sources, crawl every candidate once (sanitize phase) and
// inspect the served content for pornographic markers — the automated
// stand-in for the paper's manual DOM/screenshot inspection.
func (st *Study) CompileCorpus(ctx context.Context) (*Corpus, error) {
	c := &Corpus{}
	candidates := map[string]bool{}

	agg := st.Eco.AggregatorIndex()
	c.FromAggregators = len(agg)
	for _, h := range agg {
		candidates[h] = true
	}
	adult := st.Eco.AlexaAdultCategory()
	c.FromAlexaAdult = len(adult)
	for _, h := range adult {
		candidates[h] = true
	}
	byKeyword := st.Rank.SearchKeywords(webgen.PornKeywords)
	c.FromKeywords = len(byKeyword)
	for _, h := range byKeyword {
		candidates[h] = true
	}
	c.Candidates = len(candidates)

	hosts := make([]string, 0, len(candidates))
	for h := range candidates {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)

	sess, err := st.session("ES", "sanitize")
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	verdicts := make([]sanitizeVerdict, len(hosts))
	st.forEach(ctx, len(hosts), func(i int) {
		verdicts[i] = durableMeasure(st, sanitizeKey(hosts[i]), func() (sanitizeVerdict, bool) {
			return sanitize(ctx, sess, hosts[i])
		})
	})
	for i, v := range verdicts {
		switch {
		case !v.OK:
			c.Unresponsive++
		case !v.Porn:
			c.NonPorn++
		default:
			c.Porn = append(c.Porn, hosts[i])
		}
	}
	sort.Strings(c.Porn)

	// Reference corpus: top-10K-ranked hosts that did not land in the porn
	// corpus (the paper extracted Alexa's top-10K on a fixed day).
	pornSet := map[string]bool{}
	for _, h := range c.Porn {
		pornSet[h] = true
	}
	for _, h := range st.Rank.Hosts() {
		if pornSet[h] || candidates[h] {
			continue
		}
		stt := st.Rank.StatsFor(h)
		if stt.Best > 0 && stt.Best <= 10000 {
			c.Reference = append(c.Reference, h)
		}
	}
	sort.Strings(c.Reference)
	return c, nil
}

// sanitizeVerdict is what the sanitisation fetch of one candidate
// showed; it is also the candidate's durable store entry.
type sanitizeVerdict struct {
	OK   bool `json:"ok,omitempty"`   // the landing page answered
	Porn bool `json:"porn,omitempty"` // its text carries adult-content markers
}

// sanitizeKey is the store key of a candidate's durable verdict.
func sanitizeKey(host string) store.Key {
	return store.Key{Stage: "corpus", Corpus: "candidates", Vantage: "ES", Site: host}
}

// sanitize fetches a candidate's landing page and inspects its text. A
// failed fetch is a measured outcome (the candidate is unresponsive)
// unless it failed because ctx, the run's own context, was cancelled;
// the second result reports which.
func sanitize(ctx context.Context, sess *crawler.Session, host string) (sanitizeVerdict, bool) {
	res, _, err := sess.FetchPage(ctx, host, "/")
	if err != nil {
		return sanitizeVerdict{}, ctx.Err() == nil
	}
	doc := htmlx.Parse(res.Body)
	_, isPorn := lingo.ContainsAny(doc.InnerText(), lingo.AdultContentWords)
	return sanitizeVerdict{OK: true, Porn: isPorn}, true
}

// forEach runs fn(i) for i in [0,n) on the study's worker pool. A
// dispatcher goroutine hands out indices one at a time, so cancellation
// stops dispatching immediately: in-flight items finish (their results
// are kept as a partial crawl) but no new item starts.
func (st *Study) forEach(ctx context.Context, n int, fn func(i int)) {
	workers := st.Cfg.Workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// RankFigure is Figure 1: longitudinal popularity of every porn site.
type RankFigure struct {
	Stats []ranking.Stats // ordered by best rank (absent sites last)
	// AlwaysTop1M counts sites present in the top-1M every day of 2018.
	AlwaysTop1M int
	// AlwaysTop1K counts sites inside the top-1K every single day.
	AlwaysTop1K int
}

// RankStability computes Figure 1 over the porn corpus.
func (st *Study) RankStability(porn []string) RankFigure {
	var fig RankFigure
	for _, h := range porn {
		s := st.Rank.StatsFor(h)
		fig.Stats = append(fig.Stats, s)
		if s.DaysPresent == ranking.Days {
			fig.AlwaysTop1M++
			alwaysTopK := true
			for day := 0; day < ranking.Days; day++ {
				if r, ok := st.Rank.RankOn(h, day); !ok || r > 1000 {
					alwaysTopK = false
					break
				}
			}
			if alwaysTopK {
				fig.AlwaysTop1K++
			}
		}
	}
	sort.Slice(fig.Stats, func(i, j int) bool {
		bi, bj := fig.Stats[i].Best, fig.Stats[j].Best
		if bi == 0 {
			bi = 1 << 30
		}
		if bj == 0 {
			bj = 1 << 30
		}
		if bi != bj {
			return bi < bj
		}
		return fig.Stats[i].Host < fig.Stats[j].Host
	})
	return fig
}

// interval returns the measured popularity interval of a host (by its best
// 2018 rank in the longitudinal dataset).
func (st *Study) interval(host string) ranking.Interval {
	return ranking.IntervalOf(st.Rank.StatsFor(host).Best)
}
