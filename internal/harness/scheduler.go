package harness

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the bounded simulation scheduler behind every experiment
// engine in the package. A full-registry matrix is frameworks x workloads x
// block sizes x {untraced, traced} independent cluster simulations; before
// the scheduler, each layer fanned out a goroutine per element, so peak
// concurrency grew multiplicatively with the registries (~560 live cluster
// simulations for the built-in registry) and peak memory with it. Every
// simulation now runs as one leaf task on a shared worker pool sized
// min(GOMAXPROCS, simPoolCap), so peak concurrency is a hardware-shaped
// constant no matter how large the registries grow.
//
// Results are unaffected: every leaf task is an independently seeded
// simulation environment, so scheduling order cannot change any measured
// value — only how many simulations are live at once.

// simPoolCap caps the worker pool: beyond this, extra concurrent cluster
// simulations stop paying for their memory (each holds a full simulated
// testbed plus its trace buffers).
const simPoolCap = 16

// PoolSize reports the scheduler's concurrency bound:
// min(GOMAXPROCS, simPoolCap), floored at 1.
func PoolSize() int { return sched.size() }

// sched is the package-wide scheduler behind every task set: concurrent
// engine calls draw from one slot pool, so the bound holds globally, not
// per call.
var sched = newScheduler(defaultPoolSize())

func defaultPoolSize() int {
	n := runtime.GOMAXPROCS(0)
	if n > simPoolCap {
		n = simPoolCap
	}
	if n < 1 {
		n = 1
	}
	return n
}

// scheduler is a counting-semaphore worker pool with peak-concurrency and
// heap high-water instrumentation (the scheduler-bound regression test reads
// the concurrency peak; SweepStats reports both in the stderr footer).
type scheduler struct {
	slots  chan struct{}
	active atomic.Int64
	peak   atomic.Int64

	// peakHeap is the highest HeapAlloc observed while tasks ran: sampled
	// at every task boundary and by a coarse ticker during run calls, so it
	// tracks mid-task highs, not just settle points.
	peakHeap atomic.Uint64
}

func newScheduler(size int) *scheduler {
	if size < 1 {
		size = 1
	}
	return &scheduler{slots: make(chan struct{}, size)}
}

// size returns the concurrency bound.
func (s *scheduler) size() int { return cap(s.slots) }

// resetPeak clears the peak-concurrency and heap watermarks (test hook).
func (s *scheduler) resetPeak() {
	s.peak.Store(0)
	s.peakHeap.Store(0)
}

// peakConcurrency reports the highest number of simultaneously running
// tasks observed since the last resetPeak.
func (s *scheduler) peakConcurrency() int { return int(s.peak.Load()) }

// peakHeapBytes reports the heap high-water (HeapAlloc) observed while
// tasks ran since the last resetPeak.
func (s *scheduler) peakHeapBytes() uint64 { return s.peakHeap.Load() }

// heapObjectsMetric is the runtime/metrics name of HeapAlloc: bytes in
// live objects and in dead ones not yet swept.
const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

// sampleHeap reads the heap size and folds it into the high-water mark.
// It reads runtime/metrics, not runtime.ReadMemStats, which would stop the
// world twice per task and once per sampler tick.
func (s *scheduler) sampleHeap() {
	sample := [1]metrics.Sample{{Name: heapObjectsMetric}}
	metrics.Read(sample[:])
	heap := sample[0].Value.Uint64()
	for {
		p := s.peakHeap.Load()
		if heap <= p || s.peakHeap.CompareAndSwap(p, heap) {
			return
		}
	}
}

// task is one schedulable leaf simulation with an a-priori cost estimate,
// used to order a batch shortest-first.
type task struct {
	// cost is a unitless size estimate (roughly proportional to simulated
	// I/O event count). Zero-cost tasks keep submission order.
	cost int64
	run  func()
}

// run executes every task and returns when all have finished. Tasks start
// shortest-first (stable on the cost estimate), so a ladder's 4096-rank
// rungs cannot head-of-line-block its cheap rungs behind a full pool. At
// most size() tasks run at once, enforced by the shared slot pool even
// across concurrent run calls. Ordering cannot change any measured value —
// every task is an independently seeded simulation — only when each starts.
// Tasks must be leaf work (they must not call run themselves): a task that
// waited on nested tasks while holding a slot could starve the pool.
func (s *scheduler) run(tasks []task) {
	if len(tasks) == 0 {
		return
	}
	ordered := make([]task, len(tasks))
	copy(ordered, tasks)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].cost < ordered[j].cost })
	workers := s.size()
	if workers > len(ordered) {
		workers = len(ordered)
	}
	// Coarse heap sampler for the duration of this call: task-boundary
	// samples alone would miss mid-task highs (a simulation's trace buffers
	// peak before summarisation frees them). Stats only — never results —
	// so the ticker's nondeterminism cannot touch golden output.
	stopSampler := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-t.C:
				s.sampleHeap()
			}
		}
	}()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ordered) {
					return
				}
				s.slots <- struct{}{}
				a := s.active.Add(1)
				for {
					p := s.peak.Load()
					if a <= p || s.peak.CompareAndSwap(p, a) {
						break
					}
				}
				s.sampleHeap()
				ordered[i].run()
				s.sampleHeap()
				s.active.Add(-1)
				<-s.slots
			}
		}()
	}
	wg.Wait()
	close(stopSampler)
	samplerWG.Wait()
}
