package core

import (
	"bytes"
	"regexp"
	"testing"
)

// stageCPULine extracts the stage label of one study_stage_cpu_seconds
// sample from the exposition text.
var stageCPULine = regexp.MustCompile(`study_stage_cpu_seconds\{stage="([^"]+)"\}`)

// TestStageResourceCardinality bounds the per-stage resource metrics'
// label space: every stage label on study_stage_cpu_seconds must name a
// declared pipeline stage, and the row count can never exceed the
// pipeline's stage count — the cardinality contract that keeps the
// registry (and any scraping backend) safe from label explosions.
func TestStageResourceCardinality(t *testing.T) {
	st, _ := run(t)
	var buf bytes.Buffer
	if err := st.Metrics.WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for name := range st.buildPipeline(newPipeState()).Dependencies() {
		declared[name] = true
	}
	seen := map[string]bool{}
	for _, m := range stageCPULine.FindAllStringSubmatch(buf.String(), -1) {
		seen[m[1]] = true
		if !declared[m[1]] {
			t.Errorf("study_stage_cpu_seconds carries undeclared stage label %q", m[1])
		}
	}
	if len(seen) == 0 {
		t.Fatal("no study_stage_cpu_seconds samples after a full run")
	}
	if len(seen) > len(declared) {
		t.Errorf("%d stage labels exceed the pipeline's %d stages", len(seen), len(declared))
	}
}
