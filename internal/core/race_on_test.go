//go:build race

package core_test

// raceDetector reports a build with -race: tests that mine real workloads
// shrink their graphs under it, not their query lists.
const raceDetector = true
