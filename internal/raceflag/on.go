//go:build race

package raceflag

// Enabled is true: this build runs under the race detector.
const Enabled = true
