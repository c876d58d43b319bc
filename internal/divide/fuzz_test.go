package divide

import (
	"math"
	"strings"
	"testing"
)

// Fuzz targets for the divider invariants: whatever the inputs, a
// divider must make progress (cut > from), stay within the load, and cut
// only at valid positions. These are the properties the engine's
// dispatch loop relies on to terminate.

func FuzzUniformCutAfter(f *testing.F) {
	f.Add(100.0, 0.0, 10.0, 0.0, 42.0)
	f.Add(1830.0, 5.0, 7.0, 100.0, 99.0)
	f.Add(50.0, 0.0, 0.5, 49.9, 200.0)
	f.Fuzz(func(t *testing.T, total, start, step, from, want float64) {
		if math.IsNaN(total) || math.IsNaN(start) || math.IsNaN(step) ||
			math.IsNaN(from) || math.IsNaN(want) ||
			math.IsInf(total, 0) || math.IsInf(step, 0) || math.IsInf(want, 0) {
			t.Skip()
		}
		u, err := NewUniform(total, start, step)
		if err != nil {
			t.Skip()
		}
		if from < 0 || from >= total {
			t.Skip()
		}
		// Extreme step/total ratios make the cut grid effectively empty
		// below float precision; skip degenerate geometry.
		if step < total*1e-12 {
			t.Skip()
		}
		cut := u.CutAfter(from, want)
		if !(cut > from) {
			t.Fatalf("no progress: CutAfter(%g, %g) = %g", from, want, cut)
		}
		if cut > total {
			t.Fatalf("cut %g beyond total %g", cut, total)
		}
		// A cut must be on the step grid or the total.
		if cut != total {
			k := (cut - start) / step
			if math.Abs(k-math.Round(k)) > 1e-6*math.Max(1, math.Abs(k)) {
				t.Fatalf("cut %g not on grid start=%g step=%g", cut, start, step)
			}
		}
	})
}

func FuzzIndexCutAfter(f *testing.F) {
	f.Add(100.0, 10.0, 30.0, 60.0, 5.0, 42.0)
	f.Add(10.0, 1.0, 2.0, 3.0, 0.0, 100.0)
	f.Fuzz(func(t *testing.T, total, c1, c2, c3, from, want float64) {
		for _, v := range []float64{total, c1, c2, c3, from, want} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		ix, err := NewIndex(total, []float64{c1, c2, c3})
		if err != nil {
			t.Skip()
		}
		if from < 0 || from >= total {
			t.Skip()
		}
		cut := ix.CutAfter(from, want)
		if !(cut > from) || cut > total {
			t.Fatalf("CutAfter(%g, %g) = %g outside (%g, %g]", from, want, cut, from, total)
		}
		valid := cut == total
		for _, c := range ix.cuts {
			if cut == c {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("cut %g is not a listed position", cut)
		}
	})
}

func FuzzContinuousCutAfter(f *testing.F) {
	f.Add(100.0, 0.0, 42.0)
	f.Add(1.0, 0.999999, 0.0)
	f.Add(240000.0, 100.0, 1e300)
	f.Fuzz(func(t *testing.T, total, from, want float64) {
		for _, v := range []float64{total, from, want} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		if total <= 0 || from < 0 || from >= total {
			t.Skip()
		}
		c := Continuous{Total: total}
		cut := c.CutAfter(from, want)
		if !(cut > from) {
			t.Fatalf("no progress: CutAfter(%g, %g) = %g", from, want, cut)
		}
		if cut > total {
			t.Fatalf("cut %g beyond total %g", cut, total)
		}
	})
}

func FuzzWorkUnitsCutAfter(f *testing.F) {
	f.Add(1830, 0.0, 42.0)
	f.Add(1, 0.5, 0.0)
	f.Add(1000000, 999999.5, 3.0)
	f.Fuzz(func(t *testing.T, units int, from, want float64) {
		if math.IsNaN(from) || math.IsNaN(want) || math.IsInf(from, 0) || math.IsInf(want, 0) {
			t.Skip()
		}
		w, err := NewWorkUnits(units)
		if err != nil {
			t.Skip()
		}
		total := float64(units)
		if from < 0 || from >= total {
			t.Skip()
		}
		cut := w.CutAfter(from, want)
		if !(cut > from) {
			t.Fatalf("no progress: CutAfter(%g, %g) = %g", from, want, cut)
		}
		if cut > total {
			t.Fatalf("cut %g beyond total %g", cut, total)
		}
		// A cut is a whole unit count or the total.
		if cut != total && cut != math.Round(cut) {
			t.Fatalf("cut %g is not an integer unit boundary", cut)
		}
	})
}

func FuzzScanSeparators(f *testing.F) {
	f.Add("a|bb|ccc|", byte('|'))
	f.Add("", byte('\n'))
	f.Add("no separators here", byte(';'))
	f.Fuzz(func(t *testing.T, data string, sep byte) {
		cuts, total, err := ScanSeparators(strings.NewReader(data), sep)
		if err != nil {
			t.Fatal(err)
		}
		if total != float64(len(data)) {
			t.Fatalf("total %g != len %d", total, len(data))
		}
		// Count byte occurrences: string(sep) would re-encode bytes
		// ≥ 0x80 as multi-byte runes and miscount.
		want := strings.Count(data, string([]byte{sep}))
		if len(cuts) != want {
			t.Fatalf("%d cuts for %d separator bytes", len(cuts), want)
		}
		for i, c := range cuts {
			if c < 1 || c > total {
				t.Fatalf("cut %g out of range", c)
			}
			if data[int(c)-1] != sep {
				t.Fatalf("cut %d at %g does not follow a separator", i, c)
			}
		}
	})
}
