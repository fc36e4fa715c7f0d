// BenchmarkStudyRunSerial runs the whole study end to end, one stage at
// a time (StageWorkers 1), so a CPU profile of it reads as one pipeline
// without overlapping stages:
//
//	go test -run '^$' -bench 'BenchmarkStudyRunSerial$' -benchtime=1x -cpuprofile cpu.out .
//
// The repository benchmark (_perfbench, BENCHMARK.json) measures the
// study as the commands run it; this one is for profiling.
package pornweb_test

import (
	"context"
	"testing"
	"time"

	"pornweb/internal/core"
	"pornweb/internal/webgen"
)

func BenchmarkStudyRunSerial(b *testing.B) {
	st, err := core.NewStudy(core.Config{
		// The EXPERIMENTS.md reference config at a size where one full
		// run takes a few seconds.
		Params:       webgen.Params{Seed: 2019, Scale: 0.01},
		Workers:      8,
		StageWorkers: 1,
		Timeout:      20 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
