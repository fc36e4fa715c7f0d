package obs

import (
	"runtime"
	"time"
)

// ResourceSnapshot captures the process-wide resource odometers a stage
// boundary cares about: cumulative CPU time, cumulative heap allocation,
// completed GC cycles and the live goroutine count. Two snapshots bracket
// a pipeline stage; their difference is the cost attributed to it.
//
// All fields except Goroutines are monotonic, so deltas are well defined
// even when stages overlap — but they are *process* odometers, so when
// the scheduler runs stages concurrently each running stage counts the
// work of every other stage active at the same time. With one stage
// worker the attribution is exact; under concurrency it is an upper
// bound, and the pprof-label attribution in cmd/studyprof is the precise
// per-stage split.
type ResourceSnapshot struct {
	// CPU is the process's cumulative user+system CPU time (zero on
	// platforms without rusage support).
	CPU time.Duration
	// TotalAlloc is runtime.MemStats.TotalAlloc: cumulative heap bytes
	// allocated since process start.
	TotalAlloc uint64
	// GCCycles is runtime.MemStats.NumGC: completed GC cycles.
	GCCycles uint32
	// Goroutines is the instantaneous goroutine count.
	Goroutines int
}

// TakeResourceSnapshot reads the current process odometers. It calls
// runtime.ReadMemStats, which briefly stops the world — cheap at stage
// granularity (tens of calls per study run), not per-request.
func TakeResourceSnapshot() ResourceSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ResourceSnapshot{
		CPU:        processCPUTime(),
		TotalAlloc: ms.TotalAlloc,
		GCCycles:   ms.NumGC,
		Goroutines: runtime.NumGoroutine(),
	}
}

// RecordStageResources folds the delta between two snapshots into the
// per-stage resource metrics:
//
//	study_stage_cpu_seconds{stage=...}      process CPU consumed while the stage ran
//	study_stage_alloc_bytes_total{stage=...} heap bytes allocated while the stage ran
//	study_stage_gc_cycles_total{stage=...}   GC cycles completed while the stage ran
//	study_stage_goroutines_peak{stage=...}   max goroutine count seen at its boundaries
//
// The stage label comes from the scheduler's declared stage names, so
// cardinality is bounded by the pipeline's stage count.
func (r *Registry) RecordStageResources(stage string, start, end ResourceSnapshot) {
	if r == nil {
		return
	}
	r.Describe("study_stage_cpu_seconds",
		"Process CPU seconds consumed while the stage ran (overlapping stages each count concurrent work).")
	r.Describe("study_stage_alloc_bytes_total",
		"Heap bytes allocated while the stage ran (process-wide delta).")
	r.Describe("study_stage_gc_cycles_total",
		"GC cycles completed while the stage ran (process-wide delta).")
	r.Describe("study_stage_goroutines_peak",
		"Highest goroutine count observed at the stage's start/done boundaries.")
	if d := end.CPU - start.CPU; d > 0 {
		r.Gauge("study_stage_cpu_seconds", "stage", stage).Add(d.Seconds())
	}
	if d := end.TotalAlloc - start.TotalAlloc; d > 0 {
		r.Counter("study_stage_alloc_bytes_total", "stage", stage).Add(d)
	}
	if d := end.GCCycles - start.GCCycles; d > 0 {
		r.Counter("study_stage_gc_cycles_total", "stage", stage).Add(uint64(d))
	}
	peak := end.Goroutines
	if start.Goroutines > peak {
		peak = start.Goroutines
	}
	g := r.Gauge("study_stage_goroutines_peak", "stage", stage)
	if float64(peak) > g.Value() {
		g.Set(float64(peak))
	}
}
