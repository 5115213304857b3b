//go:build !race

package costmodel

const raceDetector = false
