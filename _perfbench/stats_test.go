package main

import (
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"pornweb/internal/obs"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 7}, 5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median reordered its input")
	}
}

// TestQuartiles pins the cut points to what Python's
// statistics.quantiles(xs, n=4) returns for the same lists.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestPercentileRule: the highest percentile reported must have at
// least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true},
		{999, 0.99, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{100, 0.9, true},
		{99, 0.9, false},
		{0, 0.5, false},
	} {
		if got := reportable(c.n, c.q); got != c.want {
			t.Errorf("reportable(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if got := samplesFor(0.99); got != 1000 {
		t.Errorf("samplesFor(0.99) = %d, want 1000", got)
	}
	if got := samplesFor(0.5); got != 20 {
		t.Errorf("samplesFor(0.5) = %d, want 20", got)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 down to 1
	}
	p99 := percentile(xs, 0.99)
	if p99 != 990 {
		t.Errorf("percentile(1..1000, 0.99) = %v, want 990", p99)
	}
	beyond := 0
	for _, x := range xs {
		if x > p99 {
			beyond++
		}
	}
	if beyond < minTail {
		t.Errorf("%d samples beyond the reported p99, want at least %d", beyond, minTail)
	}
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("percentile(1..3, 0.5) = %v, want 2", got)
	}
}

func manifestJSON(t *testing.T, m map[string]any) []byte {
	t.Helper()
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// TestCompareManifests: store-backed runs must match the reference byte
// for byte; an in-memory run may differ from it only by the store
// section.
func TestCompareManifests(t *testing.T) {
	base := map[string]any{
		"version": 1, "seed": 2019, "scale": 0.05,
		"stages":  map[string]any{"corpus": map[string]any{"records": 10, "digest": "aa"}},
		"figures": map[string]any{"table1": map[string]any{"rows": 3, "digest": "bb"}},
	}
	with := func(extra map[string]any) []byte {
		m := map[string]any{}
		for k, v := range base {
			m[k] = v
		}
		for k, v := range extra {
			m[k] = v
		}
		return manifestJSON(t, m)
	}
	ref := with(map[string]any{"store": map[string]any{"entries": 5, "digest": "cc"}})
	noStore := with(nil)
	otherStore := with(map[string]any{"store": map[string]any{"entries": 5, "digest": "dd"}})
	otherFigure := with(map[string]any{
		"store":   map[string]any{"entries": 5, "digest": "cc"},
		"figures": map[string]any{"table1": map[string]any{"rows": 3, "digest": "ee"}},
	})
	extraField := with(map[string]any{"failures": map[string]any{"dead": 1}})

	for _, c := range []struct {
		name        string
		got         []byte
		ignoreStore bool
		wantErr     string
	}{
		{"identical", ref, false, ""},
		{"identical ignoring store", ref, true, ""},
		{"in-memory run lacks store", noStore, true, ""},
		{"different store ignored", otherStore, true, ""},
		{"lacking store is a mismatch when exact", noStore, false, "differs"},
		{"different store is a mismatch when exact", otherStore, false, "differs"},
		{"different figure", otherFigure, true, `"figures"`},
		{"different figure exact", otherFigure, false, "differs"},
		{"extra field", extraField, true, `"failures"`},
	} {
		err := compareManifests(ref, c.got, c.ignoreStore)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one mentioning %s", c.name, err, c.wantErr)
		}
	}
	if err := compareManifests(ref, []byte("{"), true); err == nil {
		t.Error("a malformed manifest compared equal")
	}
	// A whitespace change inside a kept field is a byte difference too.
	indented := []byte(strings.Replace(string(ref), `"digest": "bb"`, `"digest":  "bb"`, 1))
	if err := compareManifests(ref, indented, true); err == nil {
		t.Error("a byte change inside figures compared equal")
	}
}

// metricName is the shape every reported metric name must have: a
// letter or digit first, then letters, digits, '_', '.' and '-', at most
// 64 characters in all.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validMetricName(name string) bool { return metricName.MatchString(name) }

func TestMetricNames(t *testing.T) {
	for _, name := range []string{"visits_per_s", "core.analysis.https_ms", "store.get_us", "p-99", "9lives"} {
		if !validMetricName(name) {
			t.Errorf("validMetricName(%q) = false, want true", name)
		}
	}
	for _, name := range []string{"", "_lead", ".lead", "has space", "slash/name", "ütf", strings.Repeat("a", 65)} {
		if validMetricName(name) {
			t.Errorf("validMetricName(%q) = true, want false", name)
		}
	}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !validMetricName(s.name) {
			t.Errorf("reported metric %q has an invalid name", s.name)
		}
		if seen[s.name] {
			t.Errorf("metric %q is reported twice", s.name)
		}
		seen[s.name] = true
	}
}

func TestMaxInFlight(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(name string, startMS, durMS int) obs.SpanRecord {
		return obs.SpanRecord{Name: name, Start: t0.Add(time.Duration(startMS) * time.Millisecond),
			Duration: time.Duration(durMS) * time.Millisecond}
	}
	recs := []obs.SpanRecord{
		at("visit", 0, 10),
		at("visit", 5, 10),             // overlaps the first
		at("visit-interactive", 10, 5), // starts as the first ends
		at("stage/crawl/porn-ES", 0, 100),
		at("visit", 20, 5),
		at("visit", 5, 10), // the second again, as a fleet's merged copy
	}
	if got := maxInFlight(recs); got != 2 {
		t.Errorf("maxInFlight = %d, want 2", got)
	}
	if got := maxInFlight(nil); got != 0 {
		t.Errorf("maxInFlight(nil) = %d, want 0", got)
	}
}

func TestCheckLoad(t *testing.T) {
	for _, c := range []struct {
		inFlight, limit int
		evicted         float64
		wantErr         string
	}{
		{2, 2, 0, ""},
		{0, 2, 0, ""},
		{3, 2, 0, "3 visits in flight"},
		{1, 2, 5, "5 spans evicted"},
	} {
		err := checkLoad(c.inFlight, c.limit, c.evicted)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("checkLoad(%d, %d, %v): unexpected error %v", c.inFlight, c.limit, c.evicted, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("checkLoad(%d, %d, %v) = %v, want an error mentioning %q", c.inFlight, c.limit, c.evicted, err, c.wantErr)
		}
	}
}
