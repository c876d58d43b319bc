//go:build race

package grid

// raceEnabled mirrors the race build tag so allocation-count assertions
// can skip themselves: race instrumentation allocates on paths that are
// allocation-free in a normal build.
const raceEnabled = true
