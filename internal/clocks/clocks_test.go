package clocks

import (
	"testing"
	"testing/quick"

	"iotaxo/internal/sim"
)

func TestZeroClockIsIdentity(t *testing.T) {
	c := New(0, 0)
	for _, g := range []sim.Time{0, 1, sim.Second, 123456789} {
		if c.Local(g) != g {
			t.Fatalf("Local(%v) = %v", g, c.Local(g))
		}
	}
}

func TestSkewOnly(t *testing.T) {
	c := New(5*sim.Second, 0)
	if got := c.Local(10 * sim.Second); got != 15*sim.Second {
		t.Fatalf("Local = %v, want 15s", got)
	}
	if got := c.SkewAt(999); got != 5*sim.Second {
		t.Fatalf("SkewAt = %v, want 5s", got)
	}
}

func TestDriftGrowsSkew(t *testing.T) {
	c := New(0, 100e-6) // 100 ppm fast
	s1 := c.SkewAt(1 * sim.Second)
	s2 := c.SkewAt(100 * sim.Second)
	if s2 <= s1 {
		t.Fatalf("drifting clock skew did not grow: %v then %v", s1, s2)
	}
	// 100 ppm over 100 s = 10 ms.
	if want := 10 * sim.Millisecond; s2 != want {
		t.Fatalf("skew at 100s = %v, want %v", s2, want)
	}
}

func TestNegativeDriftClockRunsSlow(t *testing.T) {
	c := New(0, -200e-6)
	if c.Local(sim.Second) >= sim.Second {
		t.Fatal("slow clock reads fast")
	}
}

func TestExtremeDriftPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, -1.5)
}

// Property: Local is strictly monotone for drift > -1.
func TestLocalMonotoneProperty(t *testing.T) {
	f := func(aRaw, bRaw uint32, driftStep int8) bool {
		a, b := sim.Time(aRaw), sim.Time(bRaw)
		if a > b {
			a, b = b, a
		}
		if a == b {
			return true
		}
		c := New(0, float64(driftStep)*100e-6)
		return c.Local(a) <= c.Local(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateRecoversParameters(t *testing.T) {
	true_ := New(3*sim.Millisecond, 250e-6)
	r1, r2 := 10*sim.Second, 110*sim.Second
	est, err := EstimateFromSamples(
		Sample{Ref: r1, Local: true_.Local(r1)},
		Sample{Ref: r2, Local: true_.Local(r2)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if d := est.Skew - true_.Skew; d < -2 || d > 2 {
		t.Fatalf("skew estimate %v, want %v", est.Skew, true_.Skew)
	}
	if d := est.Drift - true_.Drift; d < -1e-9 || d > 1e-9 {
		t.Fatalf("drift estimate %v, want %v", est.Drift, true_.Drift)
	}
}

func TestEstimateRejectsBadOrder(t *testing.T) {
	_, err := EstimateFromSamples(Sample{Ref: 10}, Sample{Ref: 10})
	if err == nil {
		t.Fatal("expected error for zero reference interval")
	}
	_, err = EstimateFromSamples(Sample{Ref: 20}, Sample{Ref: 10})
	if err == nil {
		t.Fatal("expected error for reversed samples")
	}
}

// Property: correcting a local timestamp with the exact estimate returns the
// original global instant (within rounding) for instants inside the window.
func TestCorrectInvertsLocalProperty(t *testing.T) {
	f := func(skewRaw int16, driftStep int8, gRaw uint16) bool {
		c := New(sim.Duration(skewRaw)*sim.Millisecond, float64(driftStep)*50e-6)
		r1, r2 := sim.Second, 1000*sim.Second
		est, err := EstimateFromSamples(
			Sample{Ref: r1, Local: c.Local(r1)},
			Sample{Ref: r2, Local: c.Local(r2)},
		)
		if err != nil {
			return false
		}
		g := sim.Time(gRaw) * 10 * sim.Millisecond
		back := est.Correct(c.Local(g))
		diff := back - g
		if diff < 0 {
			diff = -diff
		}
		return diff <= 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateString(t *testing.T) {
	e := Estimate{Skew: sim.Millisecond, Drift: 42e-6}
	if got := e.String(); got == "" {
		t.Fatal("empty String")
	}
}
