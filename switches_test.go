package iotaxo_test

import (
	"testing"

	"iotaxo/internal/cluster"
)

// switchesPerRank is what benchSimRanks' job costs each rank in coroutine
// resumes: its first activation, the sleeps and syscalls of its program, and
// one park per barrier. The barrier runs as an event chain, so its
// ceil(log2 p) rounds add no switch and the figure is the same at every rank
// count.
const switchesPerRank = 21

// TestSwitchesPerRankFlat pins switches per rank for benchSimRanks' job at
// 256, 1024 and 4096 ranks (4096 is skipped under -short). The job's total is
// switchesPerRank per rank plus the same few switches of the job's join
// process at every rung; a ceil(log2 p) term would grow it by rounds per
// rank with each doubling.
func TestSwitchesPerRankFlat(t *testing.T) {
	rungs := []int{256, 1024, 4096}
	if testing.Short() {
		rungs = rungs[:2]
	}
	var rests []int64
	for _, ranks := range rungs {
		cfg, params := simRanksJob(ranks)
		c := cluster.New(cfg)
		if res := params.Spec().Run(c.World); res.Ranks != ranks {
			t.Fatalf("%d ranks ran, want %d", res.Ranks, ranks)
		}
		s := int64(c.Env.Switches())
		t.Logf("%d ranks: %d switches, %.2f per rank", ranks, s, float64(s)/float64(ranks))
		rests = append(rests, s-switchesPerRank*int64(ranks))
	}
	for i, rest := range rests {
		if rest != rests[0] || rest < 0 || rest >= switchesPerRank {
			t.Fatalf("switches at %d ranks = %d*ranks%+d, want %d per rank plus the same constant at every rung (%v)",
				rungs[i], switchesPerRank, rest, switchesPerRank, rests)
		}
	}
}
