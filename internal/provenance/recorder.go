package provenance

import (
	"sync"
	"time"
)

// StageInfo is the provenance record of one completed pipeline stage.
type StageInfo struct {
	// Records counts the stage's output records (crawl-log lines, analysis
	// rows).
	Records int `json:"records"`
	// Digest is a stable content digest of those records.
	Digest string `json:"digest"`
	// Inputs names the stages this stage consumed, forming the DAG that
	// Diff walks back to a root cause.
	Inputs []string `json:"inputs,omitempty"`
}

// Recorder collects stage provenance as a run executes. Stages call
// RecordStage when they complete; the scheduler calls RecordTiming from
// its completion hook. All methods are safe for concurrent use and
// nil-safe, so an unwired pipeline records nothing at zero cost.
type Recorder struct {
	mu      sync.Mutex
	stages  map[string]StageInfo
	timings map[string]time.Duration
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		stages:  map[string]StageInfo{},
		timings: map[string]time.Duration{},
	}
}

// RecordStage stores a completed stage's record count and digest,
// replacing any earlier record of the same name.
func (r *Recorder) RecordStage(name string, records int, digest string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	info := r.stages[name]
	info.Records = records
	info.Digest = digest
	r.stages[name] = info
	r.mu.Unlock()
}

// RecordTiming stores a stage's wall-clock duration (runinfo.json only;
// never part of the manifest).
func (r *Recorder) RecordTiming(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.timings[name] = d
	r.mu.Unlock()
}

// Stages returns a copy of the recorded stage map.
func (r *Recorder) Stages() map[string]StageInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]StageInfo, len(r.stages))
	for k, v := range r.stages {
		out[k] = v
	}
	return out
}

// Timings returns a copy of the recorded stage durations.
func (r *Recorder) Timings() map[string]time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]time.Duration, len(r.timings))
	for k, v := range r.timings {
		out[k] = v
	}
	return out
}

// Reset drops everything recorded, so one Study value can run twice
// without the first run's stages leaking into the second manifest.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.stages = map[string]StageInfo{}
	r.timings = map[string]time.Duration{}
	r.mu.Unlock()
}
