// Package clocks models per-node wall clocks in a distributed system.
//
// Global virtual time (the DES clock) is the ground truth that no real node
// can observe. Each node reads its own Clock, which differs from global time
// by a constant offset (skew) and a linear rate error (drift), the two
// phenomena the paper's taxonomy requires tracing frameworks to account for:
//
//	"Time skew is the difference between distributed clocks at any single
//	 moment in time. Time drift is the change in time skew over time."
//
// LANL-Trace's pre/post barrier timing job is reproduced on top of this
// package: each node reports its local time at two globally synchronized
// instants, from which offset and drift are estimated and corrected.
package clocks

import (
	"fmt"
	"math"

	"iotaxo/internal/sim"
)

// Clock converts between global simulation time and the local wall clock of
// one node. local(t) = t + Skew + Drift*t, with Drift expressed as a
// dimensionless rate error (e.g. 50e-6 = 50 ppm fast).
type Clock struct {
	Skew  sim.Duration // constant offset at global time zero
	Drift float64      // fractional rate error; must be > -1 for monotonicity
}

// New returns a clock with the given skew and drift. It panics if drift
// would make the local clock non-monotonic.
func New(skew sim.Duration, drift float64) *Clock {
	if drift <= -1 {
		panic(fmt.Sprintf("clocks: drift %v makes clock run backwards", drift))
	}
	return &Clock{Skew: skew, Drift: drift}
}

// Local converts a global instant to this node's local timestamp.
func (c *Clock) Local(global sim.Time) sim.Time {
	return global + c.Skew + sim.Time(math.Round(c.Drift*float64(global)))
}

// SkewAt reports the instantaneous skew (local - global) at a global time.
func (c *Clock) SkewAt(global sim.Time) sim.Duration {
	return c.Local(global) - global
}

// Estimate holds a two-point linear estimate of another clock's parameters,
// produced by comparing local timestamps against reference timestamps at two
// synchronization instants (the LANL-Trace pre/post barrier jobs).
type Estimate struct {
	Skew  sim.Duration // estimated offset at reference time zero
	Drift float64      // estimated fractional rate error
}

// Sample is one synchronization observation: the reference (coordinator)
// time and the node's local time captured at the same global instant.
type Sample struct {
	Ref   sim.Time
	Local sim.Time
}

// EstimateFromSamples fits skew and drift from exactly two samples, the
// minimum LANL-Trace collects (one barrier before the application, one
// after). With s1 taken at reference r1 and s2 at r2 (r2 > r1):
//
//	drift = (Δlocal - Δref) / Δref
//	skew  = local1 - r1 - drift*r1
func EstimateFromSamples(s1, s2 Sample) (Estimate, error) {
	dr := s2.Ref - s1.Ref
	if dr <= 0 {
		return Estimate{}, fmt.Errorf("clocks: samples not in increasing reference order (Δref=%v)", dr)
	}
	dl := s2.Local - s1.Local
	drift := float64(dl-dr) / float64(dr)
	skew := s1.Local - s1.Ref - sim.Time(math.Round(drift*float64(s1.Ref)))
	return Estimate{Skew: skew, Drift: drift}, nil
}

// Correct maps a node-local timestamp onto the reference timeline using the
// fitted parameters: the operation trace-analysis tools apply when merging
// per-node traces.
func (e Estimate) Correct(local sim.Time) sim.Time {
	return sim.Time(math.Round(float64(local-e.Skew) / (1 + e.Drift)))
}

// String implements fmt.Stringer.
func (e Estimate) String() string {
	return fmt.Sprintf("skew=%v drift=%.3gppm", e.Skew, e.Drift*1e6)
}
