//go:build race

package core

// raceDetector reports whether the race detector is on. It makes
// sync.Pool drop a random quarter of what it is given, so tests that
// count on freeChunks handing chunks back skip those counts under it.
const raceDetector = true
