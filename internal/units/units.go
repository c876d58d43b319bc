// Package units defines the quantity vocabulary shared by every layer of
// the APST-DV reproduction: load measured in application-defined units
// (bytes, records, video frames, ...), data sizes in bytes, rates, and
// simulated time.
//
// Divisible load theory is unit-agnostic: a "load" is just a non-negative
// real amount that can be cut anywhere a division method allows. We keep
// load as float64 during scheduling (the algorithms produce fractional
// ideal cut points) and round to valid cut points only when a chunk is
// materialized by a divider.
package units

import (
	"fmt"
	"math"
)

// Load is an amount of divisible load in application-defined load units.
// For a byte-divisible application one load unit is one byte; for the
// MPEG case study one load unit is one video frame.
type Load float64

// Bytes is a data size in bytes. Distinct from Load because a unit of
// load may correspond to many bytes (BytesPerUnit on the application).
type Bytes float64

// Seconds is a duration in (possibly simulated) seconds. The simulator
// runs in virtual time, so we use a plain float64 second count rather
// than time.Duration, which would tie us to wall-clock semantics.
type Seconds float64

// Rate is a generic per-second rate: load units per second for compute
// speeds, bytes per second for bandwidths.
type Rate float64

const (
	// KB, MB, GB follow the paper's usage (decimal kilobytes: the paper
	// reports bandwidths like "92 kB/sec" and input sizes like "802.0 MB").
	KB Bytes = 1e3
	MB Bytes = 1e6
	GB Bytes = 1e9
)

// String renders a duration in a human-scaled form (µs .. h).
func (s Seconds) String() string {
	v := float64(s)
	abs := math.Abs(v)
	switch {
	case abs == 0:
		return "0s"
	case abs < 1e-3:
		return fmt.Sprintf("%.1fµs", v*1e6)
	case abs < 1:
		return fmt.Sprintf("%.1fms", v*1e3)
	case abs < 120:
		return fmt.Sprintf("%.2fs", v)
	case abs < 2*3600:
		return fmt.Sprintf("%.1fmin", v/60)
	default:
		return fmt.Sprintf("%.2fh", v/3600)
	}
}

// String renders a byte count with a decimal unit prefix.
func (b Bytes) String() string {
	v := float64(b)
	abs := math.Abs(v)
	switch {
	case abs < float64(KB):
		return fmt.Sprintf("%.0fB", v)
	case abs < float64(MB):
		return fmt.Sprintf("%.1fkB", v/float64(KB))
	case abs < float64(GB):
		return fmt.Sprintf("%.1fMB", v/float64(MB))
	default:
		return fmt.Sprintf("%.2fGB", v/float64(GB))
	}
}

// String renders a load amount.
func (l Load) String() string { return fmt.Sprintf("%.6g units", float64(l)) }
