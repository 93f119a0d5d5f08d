//go:build race

package iotaxo_test

// raceEnabled reports that this test binary was built with -race, whose
// instrumentation changes stack frame sizes.
const raceEnabled = true
