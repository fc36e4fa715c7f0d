package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestListVisitLog drives crawlsite the way its usage line suggests:
// -list for a host, a visit of that host, and -log exporting the raw
// request log as JSONL, one parseable line per printed request record.
func TestListVisitLog(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-scale", "0.01", "-list"}, &out, &errb); code != 0 {
		t.Fatalf("crawlsite -list: exit %d\nstderr:\n%s", code, errb.String())
	}
	host, _, _ := strings.Cut(out.String(), "\n")
	if host == "" {
		t.Fatalf("crawlsite -list printed no host:\n%s", out.String())
	}

	logPath := filepath.Join(t.TempDir(), "log.jsonl")
	out.Reset()
	errb.Reset()
	if code := run([]string{"-scale", "0.01", "-log", logPath, host}, &out, &errb); code != 0 {
		t.Fatalf("crawlsite %s: exit %d\nstdout:\n%s\nstderr:\n%s", host, code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "visited ") {
		t.Errorf("no visited line:\n%s", out.String())
	}
	_, requests, ok := strings.Cut(out.String(), "\nrequests:\n")
	if !ok {
		t.Fatalf("no requests: section:\n%s", out.String())
	}
	requests, _, _ = strings.Cut(requests, "\n\n")
	printed := 0
	for _, line := range strings.Split(requests, "\n") {
		if strings.HasPrefix(line, "  [") {
			printed++
		}
	}
	if printed == 0 {
		t.Fatalf("empty requests: section:\n%s", out.String())
	}

	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Errorf("log line %d does not parse: %v", lines, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != printed {
		t.Errorf("log has %d lines, requests: section prints %d records", lines, printed)
	}
}
