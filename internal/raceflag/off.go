//go:build !race

// Package raceflag tells tests whether the build runs under the race
// detector. Race instrumentation allocates on paths that are
// allocation-free in a normal build, and slows code about tenfold, so
// exact allocation counts skip themselves under it and long
// differential tests run a smaller sample.
package raceflag

// Enabled is false: this build does not run under the race detector.
const Enabled = false
