package sim

import "fmt"

// Time is a point in virtual time, measured in nanoseconds since the start
// of the simulation. It is deliberately distinct from time.Time: simulated
// clocks with skew and drift are layered on top by package clocks.
type Time int64

// Duration aliases Time for readability when a value denotes a span rather
// than an instant. The two are freely interchangeable in arithmetic.
type Duration = Time

// Common durations in virtual nanoseconds.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable instant; RunUntil(MaxTime) drains the
// event queue completely.
const MaxTime Time = 1<<63 - 1

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as seconds with nanosecond precision.
func (t Time) String() string {
	return fmt.Sprintf("%d.%09ds", int64(t)/int64(Second), int64(t)%int64(Second))
}

// DurationOf converts a byte count and a bandwidth in bytes/second into the
// virtual time needed to move that many bytes. Bandwidth must be positive.
func DurationOf(bytes int64, bytesPerSec float64) Duration {
	if bytesPerSec <= 0 {
		panic("sim: DurationOf requires positive bandwidth")
	}
	return Duration(float64(bytes) / bytesPerSec * float64(Second))
}
