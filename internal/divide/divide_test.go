package divide

import (
	"math"
	"testing"
	"testing/quick"
)

func TestContinuous(t *testing.T) {
	c := Continuous{Total: 100}
	if c.TotalLoad() != 100 {
		t.Error("total")
	}
	if got := c.CutAfter(0, 42.5); got != 42.5 {
		t.Errorf("CutAfter(0, 42.5) = %g", got)
	}
	if got := c.CutAfter(50, 200); got != 100 {
		t.Errorf("want clamp to total, got %g", got)
	}
	if got := c.CutAfter(99.9, 99.5); got <= 99.9 {
		t.Errorf("degenerate request must progress, got %g", got)
	}
}

func TestUniformValidation(t *testing.T) {
	if _, err := NewUniform(0, 0, 1); err == nil {
		t.Error("zero total accepted")
	}
	if _, err := NewUniform(100, 0, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := NewUniform(100, -1, 1); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := NewUniform(100, 100, 1); err == nil {
		t.Error("start at total accepted")
	}
}

func TestUniformNearestCut(t *testing.T) {
	u, err := NewUniform(100, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ from, want, cut float64 }{
		{0, 42, 40},  // 40 is nearer than 50
		{0, 46, 50},  // 50 is nearer
		{0, 45, 50},  // round half up
		{40, 42, 50}, // 40 not allowed (≤ from), next is 50
		{0, 4, 10},   // below first step: must progress to 10
		{0, 98, 100}, // near the end clamps to total
		{95, 99, 100},
	}
	for _, c := range cases {
		if got := u.CutAfter(c.from, c.want); got != c.cut {
			t.Errorf("CutAfter(%g, %g) = %g, want %g", c.from, c.want, got, c.cut)
		}
	}
}

func TestUniformWithStartOffset(t *testing.T) {
	u, err := NewUniform(100, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Valid cuts: 5, 15, 25, ..., 95, and 100.
	if got := u.CutAfter(0, 12); got != 15 {
		t.Errorf("CutAfter(0,12) = %g, want 15", got)
	}
	if got := u.CutAfter(0, 8); got != 5 {
		t.Errorf("CutAfter(0,8) = %g, want 5", got)
	}
}

func TestUniformProgressProperty(t *testing.T) {
	u, _ := NewUniform(1000, 0, 7)
	f := func(fromRaw, wantRaw float64) bool {
		if math.IsNaN(fromRaw) || math.IsNaN(wantRaw) {
			return true
		}
		from := math.Mod(math.Abs(fromRaw), 999)
		want := math.Mod(math.Abs(wantRaw), 1100)
		cut := u.CutAfter(from, want)
		return cut > from && cut <= 1000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexDivider(t *testing.T) {
	ix, err := NewIndex(100, []float64{30, 10, 60, 60, -5, 150})
	if err != nil {
		t.Fatal(err)
	}
	// Cleaned cuts: 10, 30, 60, 100.
	cuts := ix.cuts
	want := []float64{10, 30, 60, 100}
	if len(cuts) != len(want) {
		t.Fatalf("cuts = %v, want %v", cuts, want)
	}
	for i := range cuts {
		if cuts[i] != want[i] {
			t.Errorf("cuts[%d] = %g, want %g", i, cuts[i], want[i])
		}
	}
	cases := []struct{ from, want, cut float64 }{
		{0, 15, 10},
		{0, 25, 30},
		{0, 20, 10},  // tie rounds down (nearer-or-equal lower)
		{10, 12, 30}, // 10 excluded, nearest above from
		{60, 70, 100},
		{0, 500, 100},
	}
	for _, c := range cases {
		if got := ix.CutAfter(c.from, c.want); got != c.cut {
			t.Errorf("CutAfter(%g, %g) = %g, want %g", c.from, c.want, got, c.cut)
		}
	}
}

func TestIndexValidation(t *testing.T) {
	if _, err := NewIndex(0, nil); err == nil {
		t.Error("zero total accepted")
	}
	ix, err := NewIndex(50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.CutAfter(0, 10); got != 50 {
		t.Errorf("index with no cuts must return total, got %g", got)
	}
}

func TestWorkUnits(t *testing.T) {
	w, err := NewWorkUnits(61)
	if err != nil {
		t.Fatal(err)
	}
	if w.TotalLoad() != 61 {
		t.Error("total")
	}
	cases := []struct{ from, want, cut float64 }{
		{0, 20.4, 20},
		{20, 41.9, 42},
		{42, 61, 61},
		{0, 0.2, 1}, // must progress
		{60, 60.1, 61},
		{0, 100, 61},
	}
	for _, c := range cases {
		if got := w.CutAfter(c.from, c.want); got != c.cut {
			t.Errorf("CutAfter(%g, %g) = %g, want %g", c.from, c.want, got, c.cut)
		}
	}
	if _, err := NewWorkUnits(0); err == nil {
		t.Error("zero units accepted")
	}
}

func TestWorkUnitsProgressProperty(t *testing.T) {
	w, _ := NewWorkUnits(1830)
	f := func(fromRaw, wantRaw float64) bool {
		if math.IsNaN(fromRaw) || math.IsNaN(wantRaw) {
			return true
		}
		from := math.Mod(math.Abs(fromRaw), 1829)
		want := math.Mod(math.Abs(wantRaw), 2000)
		cut := w.CutAfter(from, want)
		return cut > from && cut <= 1830 && cut == math.Trunc(cut)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
