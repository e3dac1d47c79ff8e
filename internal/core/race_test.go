//go:build race

package core

// raceDetector reports a build with the race detector, whose
// instrumentation changes what escapes to the heap: a test that pins
// an exact allocation figure measures the build the benchmark runs.
const raceDetector = true
