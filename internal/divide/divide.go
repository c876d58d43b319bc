// Package divide implements APST-DV's load division methods (§3.4). A
// scheduling algorithm requests ideal, continuous cut points; the
// division method maps each request to the closest *valid* cut point for
// the application:
//
//   - uniform: cuts every stepsize load units from a start offset
//     (steptype "bytes"), or at occurrences of a separator character
//     (steptype "separator");
//   - index: cuts listed in a user-supplied index file;
//   - callback: cuts at integer work-unit boundaries, with a
//     user-supplied program (or Go function) materializing each chunk.
//
// Dividers answer the scheduler-side question ("where may I cut?");
// Materializers produce the actual chunk data for transfer. APST-DV
// divides the load on-the-fly — a chunk is a byte range of the input
// file, not a pre-created file — so materialization is cheap and the
// number of chunks is unbounded.
package divide

import (
	"fmt"
	"math"
	"sort"
)

// Divider exposes an application's valid cut points to the engine.
// Positions are in load units from the start of the load; the total load
// is always a valid cut.
type Divider interface {
	// TotalLoad returns the load size in load units.
	TotalLoad() float64
	// CutAfter returns the valid cut point closest to want among those
	// strictly greater than from (progress is mandatory: a chunk of zero
	// units could never drain the load). want is clamped into
	// (from, TotalLoad].
	CutAfter(from, want float64) float64
}

// Continuous is the idealized divisible load of DLS theory: every point
// is a valid cut. It is the divider simulations use unless an experiment
// studies granularity effects.
type Continuous struct{ Total float64 }

// TotalLoad implements Divider.
func (c Continuous) TotalLoad() float64 { return c.Total }

// CutAfter implements Divider.
func (c Continuous) CutAfter(from, want float64) float64 {
	if want > c.Total {
		want = c.Total
	}
	if want <= from {
		// Degenerate request; the smallest representable progress.
		want = math.Nextafter(from, math.MaxFloat64)
		if want > c.Total {
			want = c.Total
		}
	}
	return want
}

// Uniform cuts every Step load units starting at offset Start — the
// uniform method with steptype="bytes" (one load unit per byte, or any
// other unit the application defines).
type Uniform struct {
	Total float64
	Start float64
	Step  float64
}

// NewUniform validates and returns a uniform divider.
func NewUniform(total, start, step float64) (Uniform, error) {
	switch {
	case total <= 0:
		return Uniform{}, fmt.Errorf("divide: non-positive total %g", total)
	case step <= 0:
		return Uniform{}, fmt.Errorf("divide: non-positive step %g", step)
	case start < 0 || start >= total:
		return Uniform{}, fmt.Errorf("divide: start %g outside [0, total %g)", start, total)
	}
	return Uniform{Total: total, Start: start, Step: step}, nil
}

// TotalLoad implements Divider.
func (u Uniform) TotalLoad() float64 { return u.Total }

// CutAfter implements Divider.
func (u Uniform) CutAfter(from, want float64) float64 {
	if want > u.Total {
		want = u.Total
	}
	if want < from {
		want = from
	}
	// Valid cuts: Start + k·Step for k ≥ 0 (capped at Total), plus Total.
	k := math.Round((want - u.Start) / u.Step)
	cut := u.Start + k*u.Step
	for cut <= from {
		cut += u.Step
	}
	if cut > u.Total {
		cut = u.Total
	}
	// The rounded candidate may sit just below an even nearer valid cut;
	// compare the neighbors above and below want that still progress.
	lower := u.Start + math.Floor((want-u.Start)/u.Step)*u.Step
	if lower > from && lower <= u.Total && math.Abs(lower-want) < math.Abs(cut-want) {
		cut = lower
	}
	if cut <= from {
		cut = u.Total
	}
	return cut
}

// Index cuts at an explicit sorted list of positions — the index method,
// where the user supplies an index file "containing an entry for every
// valid cut-off point". It also backs the separator method once the
// input has been scanned for separator occurrences.
type Index struct {
	total float64
	cuts  []float64 // sorted ascending, all in (0, total]
}

// NewIndex validates, sorts and deduplicates the cut list. Positions
// outside (0, total) are dropped; total itself is implicit.
func NewIndex(total float64, cuts []float64) (*Index, error) {
	if total <= 0 {
		return nil, fmt.Errorf("divide: non-positive total %g", total)
	}
	cp := make([]float64, 0, len(cuts)+1)
	for _, c := range cuts {
		if c > 0 && c < total {
			cp = append(cp, c)
		}
	}
	sort.Float64s(cp)
	dedup := cp[:0]
	for i, c := range cp {
		if i == 0 || c != cp[i-1] {
			dedup = append(dedup, c)
		}
	}
	dedup = append(dedup, total)
	return &Index{total: total, cuts: dedup}, nil
}

// TotalLoad implements Divider.
func (ix *Index) TotalLoad() float64 { return ix.total }

// CutAfter implements Divider.
func (ix *Index) CutAfter(from, want float64) float64 {
	if want > ix.total {
		want = ix.total
	}
	// First index with cut > from.
	lo := sort.SearchFloat64s(ix.cuts, math.Nextafter(from, math.MaxFloat64))
	if lo >= len(ix.cuts) {
		return ix.total
	}
	// Among cuts[lo:], find the one nearest want: binary search the
	// insertion point and compare neighbors.
	rest := ix.cuts[lo:]
	j := sort.SearchFloat64s(rest, want)
	switch {
	case j == 0:
		return rest[0]
	case j >= len(rest):
		return rest[len(rest)-1]
	case math.Abs(rest[j]-want) < math.Abs(rest[j-1]-want):
		return rest[j]
	default:
		return rest[j-1]
	}
}

// WorkUnits cuts at integer work-unit boundaries — the callback method's
// scheduler-side view: the load attribute gives the number of
// application-defined work units (e.g. 1830 video frames), and any whole
// number of units is a valid chunk.
type WorkUnits struct{ Units int }

// NewWorkUnits validates and returns a work-unit divider.
func NewWorkUnits(units int) (WorkUnits, error) {
	if units <= 0 {
		return WorkUnits{}, fmt.Errorf("divide: non-positive work units %d", units)
	}
	return WorkUnits{Units: units}, nil
}

// TotalLoad implements Divider.
func (w WorkUnits) TotalLoad() float64 { return float64(w.Units) }

// CutAfter implements Divider.
func (w WorkUnits) CutAfter(from, want float64) float64 {
	total := float64(w.Units)
	if want > total {
		want = total
	}
	cut := math.Round(want)
	if cut <= from {
		cut = math.Floor(from) + 1
	}
	if cut > total {
		cut = total
	}
	return cut
}
