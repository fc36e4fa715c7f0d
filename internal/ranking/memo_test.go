package ranking_test

import (
	"sync"
	"testing"

	"pornweb/internal/ranking"
	"pornweb/internal/webgen"
)

// TestStatsForMemo requires the memoised StatsFor to return, for every
// host of a generated universe, exactly what a fresh computation gives,
// while concurrent callers fill the memo (run it under -race).
func TestStatsForMemo(t *testing.T) {
	e := webgen.Generate(webgen.Params{Seed: 2019, Scale: 0.01})
	d := e.RankingDataset()
	hosts := d.Hosts()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range hosts {
				d.StatsFor(hosts[(i+w*len(hosts)/4)%len(hosts)])
			}
		}(w)
	}
	wg.Wait()
	for _, h := range hosts {
		if got, want := d.StatsFor(h), ranking.ComputeStats(d, h); got != want {
			t.Fatalf("StatsFor(%q) = %+v, fresh computation %+v", h, got, want)
		}
	}
}
