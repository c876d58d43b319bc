package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d/100 equal values", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	if s.Uint64() == 0 && s.Uint64() == 0 && s.Uint64() == 0 {
		t.Error("zero seed produced a stuck generator")
	}
}

func TestStreamIndependence(t *testing.T) {
	a := Stream(7, "comm")
	b := Stream(7, "comp/0")
	c := Stream(7, "comm") // same label: identical
	for i := 0; i < 100; i++ {
		av, cv := a.Uint64(), c.Uint64()
		if av != cv {
			t.Fatalf("same (seed,label) diverged at draw %d", i)
		}
		if av == b.Uint64() {
			t.Fatalf("different labels collided at draw %d", i)
		}
	}
}

func TestStreamStableAcrossOtherStreams(t *testing.T) {
	// A worker's stream must not depend on how many other streams exist.
	x1 := Stream(9, "comp/3").Uint64()
	_ = Stream(9, "comp/4")
	_ = Stream(9, "bg/1")
	x2 := Stream(9, "comp/3").Uint64()
	if x1 != x2 {
		t.Error("stream value changed when unrelated streams were derived")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g outside [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %.4f, want ≈0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(6)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := draws / n
	for v, c := range counts {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Errorf("Intn(%d): value %d drawn %d times, want ≈%d", n, v, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	s := New(8)
	const mean, sd, n = 10.0, 2.0, 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(mean, sd)
		sum += v
		sumSq += v * v
	}
	m := sum / n
	variance := sumSq/n - m*m
	if math.Abs(m-mean) > 0.03 {
		t.Errorf("normal mean = %.3f, want ≈%.1f", m, mean)
	}
	if math.Abs(math.Sqrt(variance)-sd) > 0.03 {
		t.Errorf("normal stddev = %.3f, want ≈%.1f", math.Sqrt(variance), sd)
	}
}

func TestNormalZeroStdDev(t *testing.T) {
	s := New(9)
	if v := s.Normal(5, 0); v != 5 {
		t.Errorf("Normal(5, 0) = %g, want exactly 5", v)
	}
	if v := s.Normal(5, -1); v != 5 {
		t.Errorf("Normal(5, -1) = %g, want exactly 5", v)
	}
}

// TestPolarMatchesNormal checks that a Normal draw is mean + stddev·u·w
// of the stream's next polar pair, bit for bit, and that both consume
// the stream alike — the property a replayed pair relies on.
func TestPolarMatchesNormal(t *testing.T) {
	a, b := New(11), New(11)
	for i := 0; i < 100000; i++ {
		mean, sd := 1.0, 0.01+float64(i%25)/100
		want := a.Normal(mean, sd)
		u, w := b.Polar()
		if got := mean + sd*u*w; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("draw %d: replayed %v, Normal %v", i, got, want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Error("Polar and Normal left the stream in different states")
	}
}

func TestTruncNormalFloor(t *testing.T) {
	s := New(10)
	for i := 0; i < 100000; i++ {
		v := s.TruncNormal(1, 0.25, 0.1)
		if v < 0.1 {
			t.Fatalf("TruncNormal returned %g below floor 0.1", v)
		}
	}
}

func TestTruncNormalMeanNearlyUnbiased(t *testing.T) {
	// With the floor 9 sigma below the mean, truncation bias is nil.
	s := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.TruncNormal(1, 0.1, 0.1)
	}
	if m := sum / n; math.Abs(m-1) > 0.002 {
		t.Errorf("truncated normal mean = %.4f, want ≈1", m)
	}
}

func TestExpMean(t *testing.T) {
	s := New(12)
	const mean, n = 90.0, 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative %g", v)
		}
		sum += v
	}
	if m := sum / n; math.Abs(m-mean)/mean > 0.02 {
		t.Errorf("exponential mean = %.2f, want ≈%.0f", m, mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	if v := New(1).Exp(0); v != 0 {
		t.Errorf("Exp(0) = %g, want 0", v)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(13)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e300 || math.Abs(b) > 1e300 {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		if lo == hi || math.IsInf(hi-lo, 0) {
			return true
		}
		v := s.Uniform(lo, hi)
		return v >= lo && v < hi || v == lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexedStreamSeedMatchesFormattedLabel(t *testing.T) {
	for _, seed := range []uint64{0, 7, 1 << 40} {
		for _, i := range []int{0, 1, 9, 10, 42, 12345} {
			want := StreamSeed(seed, fmt.Sprintf("comp/%d", i))
			if got := IndexedStreamSeed(seed, "comp/", i); got != want {
				t.Fatalf("seed=%d i=%d: got %#x want %#x", seed, i, got, want)
			}
		}
	}
}

func TestSeedReinitializesInPlace(t *testing.T) {
	fresh := New(99)
	s := New(1)
	s.Uint64()
	s.Seed(99)
	for i := 0; i < 16; i++ {
		if got, want := s.Uint64(), fresh.Uint64(); got != want {
			t.Fatalf("draw %d: reseeded source diverged: %#x vs %#x", i, got, want)
		}
	}
}
