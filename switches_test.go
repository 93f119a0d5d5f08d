package iotaxo_test

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"

	"iotaxo/internal/cluster"
	"iotaxo/internal/lanltrace"
	"iotaxo/internal/mpi"
	"iotaxo/internal/sim"
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

// stackKBPerRank is what a rank's coroutine stack costs in benchSimRanks'
// job at every rung, untraced or under LANL-Trace: the deepest path a rank
// takes, MPI_File_open's metadata call down to the allocations a cold
// request pool makes, fits the runtime's 4 KB stack, so no rank's stack
// doubles to 8 KB.
const stackKBPerRank = 4

// stackProbeEnv names the job a child test process measures: its rank
// count, then "untraced" or "lanl-trace".
const stackProbeEnv = "IOTAXO_STACK_PROBE"

// TestStackBytesPerRankFlat pins a rank's stack at stackKBPerRank at 256,
// 1024 and 4096 ranks (4096 is skipped under -short), untraced and traced.
// Each job runs in a fresh test process (TestStackProbe), because stacks
// that earlier tests freed stay reserved and would be reused uncounted.
// Stacks come in powers of two, so a path that outgrows 4 KB doubles the
// figure; the tolerance only absorbs the other goroutines' stacks. The race
// detector's instrumentation deepens every frame, so the pin holds for
// plain builds.
func TestStackBytesPerRankFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector deepens every frame")
	}
	rungs := []int{256, 1024, 4096}
	if testing.Short() {
		rungs = rungs[:2]
	}
	for _, ranks := range rungs {
		for _, job := range []string{"untraced", "lanl-trace"} {
			cmd := exec.Command(os.Args[0], "-test.run=^TestStackProbe$", "-test.count=1", "-test.v")
			cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d,%s", stackProbeEnv, ranks, job))
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%d ranks %s: probe process: %v\n%s", ranks, job, err, out)
			}
			_, figure, ok := strings.Cut(string(out), "stack KB per rank: ")
			var kb float64
			if !ok {
				t.Fatalf("%d ranks %s: probe printed no figure:\n%s", ranks, job, out)
			}
			if _, err := fmt.Sscan(figure, &kb); err != nil {
				t.Fatalf("%d ranks %s: %v in %q", ranks, job, err, figure)
			}
			t.Logf("%d ranks %s: %.3f KB of stack per rank", ranks, job, kb)
			if kb < stackKBPerRank-0.75 || kb > stackKBPerRank+0.75 {
				t.Errorf("%d ranks %s: %.2f KB of stack per rank, want %d", ranks, job, kb, stackKBPerRank)
			}
		}
	}
}

// TestStackProbe runs benchSimRanks' job as stackProbeEnv names it, in a
// process of its own, and logs the peak of the heap reserved for goroutine
// stacks, less its level when the job starts, per rank. A simulation event
// samples it every 20 µs of virtual time. A collection first sets the
// runtime's adaptive starting stack size to what the idle process needs.
// Without the variable it does nothing.
func TestStackProbe(t *testing.T) {
	rankArg, job, _ := strings.Cut(os.Getenv(stackProbeEnv), ",")
	ranks, err := strconv.Atoi(rankArg)
	if err != nil {
		t.Skip("runs as TestStackBytesPerRankFlat's child process")
	}
	cfg, params := simRanksJob(ranks)
	c := cluster.New(cfg)
	runtime.GC()
	base := stackBytes()
	peak := base
	var sample func()
	sample = func() {
		peak = max(peak, stackBytes())
		if c.Env.LiveProcs() > 0 && c.Env.Now() < 60*sim.Second {
			c.Env.After(20*sim.Microsecond, sample)
		}
	}
	c.Env.After(0, sample)
	spec := params.Spec()
	switch job {
	case "untraced":
		spec.Run(c.World)
	case "lanl-trace":
		lanltrace.New(lanltrace.DefaultConfig()).Run(c.World, spec.CommandLine, func(p *sim.Proc, r *mpi.Rank) {
			spec.Program(p, r, nil)
		})
	default:
		t.Fatalf("unknown job %q", job)
	}
	t.Logf("stack KB per rank: %f", float64(peak-base)/float64(ranks)/1024)
}

// stackBytes reads the heap bytes reserved for goroutine stacks.
func stackBytes() uint64 {
	s := [1]metrics.Sample{{Name: "/memory/classes/heap/stacks:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}
