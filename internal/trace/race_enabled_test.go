//go:build race

package trace

// raceEnabled mirrors the race build tag, so the differential test can
// run a smaller sample under the detector's tenfold slowdown.
const raceEnabled = true
