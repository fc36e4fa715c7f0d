// Package ranking simulates the longitudinal Alexa top-1M dataset the study
// uses as a popularity oracle: 365 daily rank snapshots for every site in
// the universe throughout 2018, plus the keyword search over indexed
// hostnames and the Adult category service used during corpus compilation
// (Section 3 of the paper).
//
// Real top lists are noisy and churn heavily day to day (Scheitle et al.,
// cited by the paper), so each site's daily rank is drawn from a log-normal
// distribution around its base rank; sites whose sampled rank exceeds one
// million are absent from that day's snapshot. All draws are deterministic
// functions of (dataset seed, host, day), so results are reproducible and
// independent of insertion or iteration order.
package ranking

import (
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"
)

// Top1M is the size of the simulated daily toplist.
const Top1M = 1_000_000

// Days is the length of the longitudinal window (2018).
const Days = 365

// Site is one entry of the rank universe.
type Site struct {
	Host       string
	BaseRank   int     // central popularity rank (1 = most popular)
	Volatility float64 // log-normal sigma of daily rank noise; 0 picks a default
}

// Stats is the longitudinal summary for a site, the quantities Figure 1
// plots: best and median rank over the year and the share of days the site
// appeared in the top-1M at all.
type Stats struct {
	Host        string
	Best        int     // best (lowest) rank over days present; 0 if never present
	Median      int     // median rank over days present; 0 if never present
	DaysPresent int     // days the site appeared in the top-1M
	Presence    float64 // DaysPresent / Days
}

// Dataset is the simulated longitudinal toplist.
type Dataset struct {
	seed  uint64
	sites map[string]Site

	// statsMu guards the StatsFor memo: a host's summary is a pure
	// function of (seed, site), filled on first request.
	statsMu sync.Mutex
	// guarded by statsMu
	stats map[string]Stats
}

// New creates an empty dataset with the given seed.
func New(seed uint64) *Dataset {
	return &Dataset{seed: seed, sites: make(map[string]Site), stats: make(map[string]Stats)}
}

// Add registers a site. Adding the same host twice overwrites the entry.
func (d *Dataset) Add(s Site) {
	s.Host = strings.ToLower(s.Host)
	if s.Volatility == 0 {
		s.Volatility = defaultVolatility(s.BaseRank)
	}
	d.sites[s.Host] = s
	d.statsMu.Lock()
	delete(d.stats, s.Host)
	d.statsMu.Unlock()
}

// Len returns the number of registered sites.
func (d *Dataset) Len() int { return len(d.sites) }

// BaseRank returns a site's central popularity rank (0 when unknown).
// Unlike StatsFor it is a plain map lookup, cheap enough for per-visit
// callers like the flight recorder.
func (d *Dataset) BaseRank(host string) int {
	return d.sites[strings.ToLower(host)].BaseRank
}

// Hosts returns all registered hosts, sorted.
func (d *Dataset) Hosts() []string {
	out := make([]string, 0, len(d.sites))
	for h := range d.sites {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// defaultVolatility grows mildly with rank. It stays small because daily
// ranks are strongly autocorrelated in real top lists: the best rank over
// a year sits near the base rank, not orders of magnitude above it.
// Presence churn at the bottom of the list is modeled separately by
// dropProb.
func defaultVolatility(base int) float64 {
	if base < 1 {
		base = 1
	}
	return 0.04 + 0.045*math.Log10(float64(base))
}

// dropProb is the per-day probability that a site misses the top-1M
// snapshot entirely, independent of its sampled rank — the heavy bottom-
// of-list churn of real top lists (Scheitle et al.). Calibrated so that
// roughly the best-ranked sixth of a paper-shaped corpus is present all
// 365 days (Figure 1: 16% of porn sites were always in the top-1M).
func dropProb(base int) float64 {
	if base <= 10000 {
		return 0
	}
	p := 0.0011 * float64(base) / 10000
	if p > 0.55 {
		p = 0.55
	}
	return p
}

// hash64 mixes the dataset seed, host and day into a uint64. The FNV state
// is passed through a murmur3-style finalizer: FNV alone maps inputs that
// differ only in a trailing byte (consecutive days) onto an arithmetic
// progression, which made per-host daily draws strongly correlated.
func (d *Dataset) hash64(host string, day int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(d.seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(host))
	buf[0], buf[1], buf[2], buf[3] = byte(day), byte(day>>8), byte(day>>16), byte(day>>24)
	h.Write(buf[:4])
	return mix64(h.Sum64())
}

// mix64 is the murmur3 64-bit finalizer: full avalanche, so structured
// inputs come out uniformly scattered.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// unitUniform maps a hash to (0,1).
func unitUniform(h uint64) float64 {
	return (float64(h>>11) + 0.5) / float64(1<<53)
}

// gaussian returns a standard normal deviate from two independent hashes
// via Box-Muller.
func gaussian(h1, h2 uint64) float64 {
	u1, u2 := unitUniform(h1), unitUniform(h2)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// RankOn returns the site's rank on the given day (0-based, 0..Days-1) and
// whether it was present in that day's top-1M snapshot. Unknown hosts are
// absent every day.
func (d *Dataset) RankOn(host string, day int) (rank int, present bool) {
	s, ok := d.sites[strings.ToLower(host)]
	if !ok {
		return 0, false
	}
	// Bottom-of-list churn: the site may miss the snapshot entirely.
	if p := dropProb(s.BaseRank); p > 0 {
		if unitUniform(d.hash64(s.Host, 1_000_000+day)) < p {
			return 0, false
		}
	}
	z := gaussian(d.hash64(s.Host, day*2), d.hash64(s.Host, day*2+1))
	logRank := math.Log(float64(s.BaseRank)) + s.Volatility*z
	r := int(math.Round(math.Exp(logRank)))
	if r < 1 {
		r = 1
	}
	if r > Top1M {
		return 0, false
	}
	return r, true
}

// StatsFor returns the longitudinal summary for a host. The 365-day
// computation runs once per host and is memoised; StatsFor is safe for
// concurrent use.
func (d *Dataset) StatsFor(host string) Stats {
	host = strings.ToLower(host)
	d.statsMu.Lock()
	st, ok := d.stats[host]
	d.statsMu.Unlock()
	if ok {
		return st
	}
	st = d.computeStats(host)
	d.statsMu.Lock()
	d.stats[host] = st
	d.statsMu.Unlock()
	return st
}

// computeStats derives a lowercased host's summary from its daily ranks.
func (d *Dataset) computeStats(host string) Stats {
	st := Stats{Host: host}
	var ranks []int
	for day := 0; day < Days; day++ {
		if r, ok := d.RankOn(host, day); ok {
			ranks = append(ranks, r)
		}
	}
	st.DaysPresent = len(ranks)
	st.Presence = float64(len(ranks)) / float64(Days)
	if len(ranks) == 0 {
		return st
	}
	sort.Ints(ranks)
	st.Best = ranks[0]
	st.Median = ranks[len(ranks)/2]
	return st
}

// AllStats computes summaries for every registered host, sorted by best
// rank ascending (absent sites last), which is the x-axis ordering of
// Figure 1.
func (d *Dataset) AllStats() []Stats {
	out := make([]Stats, 0, len(d.sites))
	for _, h := range d.Hosts() {
		out = append(out, d.StatsFor(h))
	}
	sort.Slice(out, func(i, j int) bool {
		bi, bj := out[i].Best, out[j].Best
		if bi == 0 {
			bi = math.MaxInt32
		}
		if bj == 0 {
			bj = math.MaxInt32
		}
		if bi != bj {
			return bi < bj
		}
		return out[i].Host < out[j].Host
	})
	return out
}

// SearchKeywords returns the hosts whose name contains any of the keywords,
// sorted. This is the paper's third corpus-discovery source: searching the
// 2018 toplists for porn-related substrings ("porn", "tube", "sex", ...),
// which introduces false positives (YouTube matches "tube") that the
// sanitization crawl later removes.
func (d *Dataset) SearchKeywords(keywords []string) []string {
	var out []string
	for h := range d.sites {
		for _, k := range keywords {
			if strings.Contains(h, strings.ToLower(k)) {
				out = append(out, h)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// Interval is a popularity interval as used by Tables 3 and 6.
type Interval int

// Popularity intervals by the site's best 2018 rank.
const (
	IntervalTop1K   Interval = iota // 0 — 1k
	Interval1K10K                   // 1k — 10k
	Interval10K100K                 // 10k — 100k
	Interval100KUp                  // 100k+ (including never ranked)
	NumIntervals
)

// String renders the interval as the paper prints it.
func (iv Interval) String() string {
	switch iv {
	case IntervalTop1K:
		return "0 — 1k"
	case Interval1K10K:
		return "1k — 10k"
	case Interval10K100K:
		return "10k — 100k"
	default:
		return "100k+"
	}
}

// IntervalOf maps a best rank to its interval. Rank 0 (never in the top-1M)
// falls in the 100k+ bucket, like the paper's never-indexed tail sites.
func IntervalOf(bestRank int) Interval {
	switch {
	case bestRank >= 1 && bestRank <= 1000:
		return IntervalTop1K
	case bestRank > 1000 && bestRank <= 10000:
		return Interval1K10K
	case bestRank > 10000 && bestRank <= 100000:
		return Interval10K100K
	default:
		return Interval100KUp
	}
}
