//go:build !race

package core

// raceDetector reports whether the race detector is on; see race_test.go.
const raceDetector = false
