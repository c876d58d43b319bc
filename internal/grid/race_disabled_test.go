//go:build !race

package grid

// raceEnabled is false in normal builds; see race_enabled_test.go.
const raceEnabled = false
