//go:build race

package costmodel

// raceDetector reports a build with -race.
const raceDetector = true
