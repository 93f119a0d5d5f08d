package sim

import (
	"fmt"
	"slices"
	"testing"
)

// stamps records labelled virtual times, in the order the runs happen.
type stamps []string

func (s *stamps) add(label string, at Time) { *s = append(*s, fmt.Sprintf("%s@%d", label, at)) }

func (s stamps) want(t *testing.T, want ...string) {
	t.Helper()
	if !slices.Equal(s, want) {
		t.Fatalf("runs = %v, want %v", s, want)
	}
}

// TestLoneSleepsElided: a process alone in the queue wakes before any other
// event, so none of its sleeps hands off, and the clock still reads each
// wake.
func TestLoneSleepsElided(t *testing.T) {
	env := NewEnv(1)
	var got stamps
	env.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			got.add("p", p.Now())
		}
	})
	if end := env.Run(); end != 30 {
		t.Fatalf("Run ended at %d, want 30", end)
	}
	got.want(t, "p@10", "p@20", "p@30")
	if env.Switches() != 1 || env.Elided() != 3 {
		t.Fatalf("switches %d, elided %d; want 1 (first activation) and 3", env.Switches(), env.Elided())
	}
}

// TestSleepTiedWithQueuedEventParks: an event already queued at a sleep's
// wake time was scheduled first, so it runs first; the sleep must park.
func TestSleepTiedWithQueuedEventParks(t *testing.T) {
	env := NewEnv(1)
	var got stamps
	env.At(5, func() { got.add("event", env.Now()) })
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(5)
		got.add("p", p.Now())
	})
	env.Run()
	got.want(t, "event@5", "p@5")
	if env.Switches() != 2 || env.Elided() != 0 {
		t.Fatalf("switches %d, elided %d; want 2 and 0", env.Switches(), env.Elided())
	}
}

// TestSleepAfterAwaitWakeParks: a process that an event chain wakes runs
// inside the chain's callback, and the callback's rest runs at the wake's
// time. Here the rest schedules an event one tick later, after the process
// has started its Sleep(5): that event must run before the sleep ends, and
// at the callback's time plus one.
func TestSleepAfterAwaitWakeParks(t *testing.T) {
	env := NewEnv(1)
	var got stamps
	env.Go("waiter", func(p *Proc) {
		p.Await(func(wake func()) {
			env.At(10, func() {
				wake()
				env.After(1, func() { got.add("event", env.Now()) })
			})
		})
		got.add("woken", p.Now())
		p.Sleep(5)
		got.add("p", p.Now())
	})
	env.Run()
	got.want(t, "woken@10", "event@11", "p@15")
}

// TestSleepPastDeadlineParks: a sleep whose wake lies past the running
// RunUntil's deadline parks, and Stop kills it there; the clock stops at the
// deadline.
func TestSleepPastDeadlineParks(t *testing.T) {
	env := NewEnv(1)
	var got stamps
	unwound := false
	env.Go("sleeper", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(5)
		got.add("p", p.Now())
		p.Sleep(100)
		got.add("late", p.Now())
	})
	if end := env.RunUntil(50); end != 50 {
		t.Fatalf("RunUntil ended at %d, want 50", end)
	}
	got.want(t, "p@5")
	if !unwound || env.LiveProcs() != 0 {
		t.Fatalf("unwound=%v live=%d: the parked sleeper was not killed at Stop", unwound, env.LiveProcs())
	}
}

// TestSpawnThenSleepZeroRunsChildFirst: a child spawned by a process starts
// at the current time, queued before the parent's Sleep(0) wake, so the
// child runs first.
func TestSpawnThenSleepZeroRunsChildFirst(t *testing.T) {
	env := NewEnv(1)
	var got stamps
	env.Go("parent", func(p *Proc) {
		env.Go("child", func(c *Proc) { got.add("child", c.Now()) })
		p.Sleep(0)
		got.add("parent", p.Now())
	})
	env.Run()
	got.want(t, "child@0", "parent@0")
}
