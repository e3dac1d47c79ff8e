//go:build race

package plan_test

// raceDetector reports a build with the race detector, whose
// instrumentation changes what escapes to the heap: a test that pins
// an allocation figure measures the build the benchmark runs.
const raceDetector = true
