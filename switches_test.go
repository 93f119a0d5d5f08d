package iotaxo_test

import (
	"testing"

	"iotaxo/internal/cluster"
)

// switchesPerRank is what benchSimRanks' job costs each rank in coroutine
// resumes when every Sleep parks: its first activation, the sleeps and
// syscalls of its program, and one park per barrier. The barrier runs as an
// event chain, so its ceil(log2 p) rounds add no switch and the figure is the
// same at every rank count. A Sleep that no event can precede returns
// without a resume (Env.Elided), so Switches()+Elided() is this figure.
const switchesPerRank = 21

// elidedAt pins the sleeps benchSimRanks' job elides at each rung: a law on
// Switches()+Elided() alone would not see elision drift, and elision decides
// where the hand-offs go.
var elidedAt = map[int]uint64{256: 254, 1024: 1004, 4096: 4015}

// TestSwitchesPerRankFlat pins resumes per rank for benchSimRanks' job at
// 256, 1024 and 4096 ranks (4096 is skipped under -short). The job's
// Switches()+Elided() is switchesPerRank per rank plus the same few resumes
// of the job's join process at every rung; a ceil(log2 p) term would grow it
// by rounds per rank with each doubling. Elided() is pinned exactly.
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
		sw, el := c.Env.Switches(), c.Env.Elided()
		t.Logf("%d ranks: %d switches (%.2f per rank) + %d elided", ranks, sw, float64(sw)/float64(ranks), el)
		if el != elidedAt[ranks] {
			t.Errorf("%d ranks: %d sleeps elided, want %d", ranks, el, elidedAt[ranks])
		}
		rests = append(rests, int64(sw+el)-switchesPerRank*int64(ranks))
	}
	for i, rest := range rests {
		if rest != rests[0] || rest < 0 || rest >= switchesPerRank {
			t.Fatalf("switches+elided at %d ranks = %d*ranks%+d, want %d per rank plus the same constant at every rung (%v)",
				rungs[i], switchesPerRank, rest, switchesPerRank, rests)
		}
	}
}
