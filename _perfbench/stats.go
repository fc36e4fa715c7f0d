package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four equal
// groups, by the same rule as Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method), so spreads computed here and by a reader of
// the results file agree.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// rank is the 1-based nearest rank of quantile q (0 < q < 1) among n
// samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// reportable reports whether quantile q of n samples has at least
// minTail samples beyond it, the condition for reporting it at all.
func reportable(n int, q float64) bool { return n > 0 && n-rank(n, q) >= minTail }

// samplesFor is the smallest sample count for which quantile q is
// reportable.
func samplesFor(q float64) int {
	n := 1
	for !reportable(n, q) {
		n++
	}
	return n
}

// percentile returns quantile q of xs by nearest rank; callers collect
// samplesFor(q) samples first so that it is reportable.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rank(len(s), q)-1]
}

// checkLoad holds a traced run to the load model: no more than limit
// visits in flight, counted from a span record that lost nothing.
func checkLoad(inFlight, limit int, evicted float64) error {
	if evicted > 0 {
		return fmt.Errorf("%.0f spans evicted from a tracer ring, so the in-flight count misses part of the run", evicted)
	}
	if inFlight > limit {
		return fmt.Errorf("%d visits in flight, the load model allows %d", inFlight, limit)
	}
	return nil
}

// compareManifests checks a run's manifest against the reference one.
// With ignoreStore unset the two must be equal byte for byte. With it set
// they may differ only in the top-level "store" section, which an
// in-memory run lacks: every other top-level field must be present in
// both with identical bytes. The error names the first field that
// differs.
func compareManifests(ref, got []byte, ignoreStore bool) error {
	if !ignoreStore {
		if bytes.Equal(ref, got) {
			return nil
		}
		return fmt.Errorf("manifest differs from the reference (%d vs %d bytes) at byte %d",
			len(got), len(ref), firstDiff(ref, got))
	}
	var r, g map[string]json.RawMessage
	if err := json.Unmarshal(ref, &r); err != nil {
		return fmt.Errorf("reference manifest: %w", err)
	}
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Errorf("run manifest: %w", err)
	}
	delete(r, "store")
	delete(g, "store")
	keys := make([]string, 0, len(r)+len(g))
	for k := range r {
		keys = append(keys, k)
	}
	for k := range g {
		if _, ok := r[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		rv, rok := r[k]
		gv, gok := g[k]
		switch {
		case !rok:
			return fmt.Errorf("manifest field %q is not in the reference", k)
		case !gok:
			return fmt.Errorf("manifest lacks reference field %q", k)
		case !bytes.Equal(rv, gv):
			return fmt.Errorf("manifest field %q differs from the reference", k)
		}
	}
	return nil
}

// firstDiff is the offset of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
