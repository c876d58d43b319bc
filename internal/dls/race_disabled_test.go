//go:build !race

package dls

// raceEnabled is false in normal builds; see race_enabled_test.go.
const raceEnabled = false
