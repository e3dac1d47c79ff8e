//go:build !race

package api_test

const raceDetector = false
