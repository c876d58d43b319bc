package workload

import (
	"fmt"
	"math"
	"testing"

	"apstdv/internal/model"
	"apstdv/internal/rng"
	"apstdv/internal/stats"
	"apstdv/internal/units"
)

func TestSyntheticRatiosMatchPaper(t *testing.T) {
	// The single synthetic application must yield both reported ratios:
	// r ≈ 37 against DAS-2 and r ≈ 46 against Meteor (§4.2).
	app := Synthetic(0)
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	rDas2 := model.PlatformRatio(app, DAS2(16))
	if math.Abs(rDas2-37) > 1 {
		t.Errorf("r(DAS-2) = %.1f, want ≈37", rDas2)
	}
	rMeteor := model.PlatformRatio(app, Meteor(16))
	if math.Abs(rMeteor-46) > 1.5 {
		t.Errorf("r(Meteor) = %.1f, want ≈46", rMeteor)
	}
}

func TestSyntheticGammaPassthrough(t *testing.T) {
	if Synthetic(0.1).Gamma != 0.1 {
		t.Error("gamma not set")
	}
	if Synthetic(0).Gamma != 0 {
		t.Error("gamma should be 0")
	}
}

// TestSyntheticName checks the name table against the formatting it
// replaces, at whole percents and off them, at both ends of the table
// and past them, and for −0 and non-finite γ; a name from the table
// costs no allocation.
func TestSyntheticName(t *testing.T) {
	for _, gamma := range []float64{
		0, 0.01, 0.07, 0.1, 0.2, 0.3, 0.5, 0.99, 1, 1.01, 2, 0.123, 0.005,
		-0.1, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e300,
	} {
		if got, want := Synthetic(gamma).Name, fmt.Sprintf("synthetic(γ=%g%%)", gamma*100); got != want {
			t.Errorf("Synthetic(%v).Name = %q, want %q", gamma, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = syntheticName(0.1) }); allocs != 0 {
		t.Errorf("syntheticName(0.1) allocated %v times; want 0", allocs)
	}
}

func TestSyntheticWithRatio(t *testing.T) {
	app := SyntheticWithRatio(50, 0.05, 92e3)
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	// r against one speed-1 worker on the reference rate.
	ref := &model.Platform{Workers: []model.Worker{{Speed: 1, Bandwidth: 92e3}}}
	got := model.PlatformRatio(app, ref)
	if math.Abs(got-50) > 1e-9 {
		t.Errorf("r = %g, want exactly 50", got)
	}
}

func TestCaseStudyMatchesFigure6(t *testing.T) {
	app := CaseStudy()
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	if app.TotalLoad != 1830 {
		t.Errorf("load = %g frames, want 1830", float64(app.TotalLoad))
	}
	if math.Abs(float64(app.InputBytes())-209e6) > 1e3 {
		t.Errorf("input = %g bytes, want 209 MB", float64(app.InputBytes()))
	}
	if CaseStudyProbeLoad != 21 {
		t.Error("probe_load should be 21 frames")
	}
	r := model.PlatformRatio(app, GRAIL())
	if math.Abs(r-13.5) > 1.5 {
		t.Errorf("r(GRAIL) = %.1f, want ≈13.5", r)
	}
}

func TestGRAILShape(t *testing.T) {
	p := GRAIL()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Workers) != 7 {
		t.Fatalf("%d workers, want 7 CPUs", len(p.Workers))
	}
	slow := 0
	for _, w := range p.Workers {
		if w.Background == nil {
			t.Errorf("worker %s is dedicated; GRAIL hosts are not", w.Name)
		}
		if w.Speed < 1 {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("%d slow workers, want exactly 1 (the 700 MHz Athlon)", slow)
	}
	ded := GRAILDedicated()
	for _, w := range ded.Workers {
		if w.Background != nil {
			t.Error("GRAILDedicated still has background load")
		}
	}
}

func TestPlatformConstructors(t *testing.T) {
	for _, tc := range []struct {
		p    *model.Platform
		n    int
		name string
	}{
		{DAS2(16), 16, "das2-16"},
		{Meteor(3), 3, "meteor-3"},
		{Mixed(8, 8), 16, "das2-8+meteor-8"},
		{Mixed(2, 0), 2, "das2-2+meteor-0"},
	} {
		if err := tc.p.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if len(tc.p.Workers) != tc.n {
			t.Errorf("%s has %d workers, want %d", tc.name, len(tc.p.Workers), tc.n)
		}
		if tc.p.Name != tc.name {
			t.Errorf("name %q, want %q", tc.p.Name, tc.name)
		}
	}
}

func TestMixedClusterCharacteristics(t *testing.T) {
	p := Mixed(2, 2)
	if p.Workers[0].CommLatency != 6.4 || p.Workers[2].CommLatency != 0.7 {
		t.Error("mixed platform cluster latencies wrong")
	}
	clusters := p.Clusters()
	if len(clusters) != 2 || clusters[0] != "das2" || clusters[1] != "meteor" {
		t.Errorf("clusters = %v", clusters)
	}
}

func TestTable1RowsMatchPaperStatics(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	// r = runtime / (inputMB·1e6 / 10 MB/s) must reproduce the table.
	for _, row := range rows {
		transfer := row.InputMB * 1e6 / float64(Table1ReferenceRate)
		r := row.RunTimeSec / transfer
		if math.Abs(r-row.R)/row.R > 0.02 {
			t.Errorf("%s: derived r = %.1f, table says %.1f", row.Name, r, row.R)
		}
	}
}

func TestTable1SamplersReproduceGammaAndSpread(t *testing.T) {
	src := rng.New(99)
	for _, row := range Table1() {
		if row.GammaPct < 0 {
			continue
		}
		const n = 300000
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = row.Sampler.Sample(src)
		}
		gotGamma := 100 * stats.CV(xs)
		if math.Abs(gotGamma-row.GammaPct) > 2 {
			t.Errorf("%s: sampled γ = %.1f%%, want ≈%.0f%%", row.Name, gotGamma, row.GammaPct)
		}
		gotSpread := 100 * stats.Spread(xs)
		tol := 0.25 * row.SpreadPct
		if tol < 2 {
			tol = 2
		}
		if math.Abs(gotSpread-row.SpreadPct) > tol {
			t.Errorf("%s: sampled spread = %.0f%%, want ≈%.0f%%", row.Name, gotSpread, row.SpreadPct)
		}
		gotMean := stats.Mean(xs)
		if want := meanCost(row.Sampler); math.Abs(gotMean-want)/want > 0.02 {
			t.Errorf("%s: sampled mean %.4f, want %.4f", row.Name, gotMean, want)
		}
	}
}

func TestTable1Application(t *testing.T) {
	for _, row := range Table1() {
		app := table1Application(row)
		if err := app.Validate(); err != nil {
			t.Errorf("%s: %v", row.Name, err)
		}
		if math.Abs(float64(app.SequentialTime())-row.RunTimeSec) > 1 {
			t.Errorf("%s: sequential time %.0f, want %.0f", row.Name, float64(app.SequentialTime()), row.RunTimeSec)
		}
	}
}

func TestSamplersPositive(t *testing.T) {
	src := rng.New(5)
	for _, row := range Table1() {
		for i := 0; i < 10000; i++ {
			if v := row.Sampler.Sample(src); v <= 0 {
				t.Fatalf("%s sampler produced %g", row.Name, v)
			}
		}
	}
}

func TestParsePlatform(t *testing.T) {
	cases := []struct {
		in      string
		workers int
	}{
		{"das2:16", 16},
		{"meteor:4", 4},
		{"mixed:8,8", 16},
		{"mixed:0,3", 3},
		{"grail", 7},
		{"grail-dedicated", 7},
	}
	for _, c := range cases {
		p, err := ParsePlatform(c.in)
		if err != nil {
			t.Errorf("ParsePlatform(%q): %v", c.in, err)
			continue
		}
		if len(p.Workers) != c.workers {
			t.Errorf("ParsePlatform(%q) has %d workers, want %d", c.in, len(p.Workers), c.workers)
		}
	}
	for _, bad := range []string{"", "das2:", "das2:0", "das2:x", "mixed:1", "mixed:0,0", "venus:3"} {
		if _, err := ParsePlatform(bad); err == nil {
			t.Errorf("ParsePlatform(%q) accepted", bad)
		}
	}
}

// meanCost is a sampler's mean unit cost: both samplers are
// parameterized by it.
func meanCost(s UnitCostSampler) float64 {
	switch s := s.(type) {
	case NormalSampler:
		return s.Mean
	case MixtureSampler:
		return s.Mean
	}
	panic(fmt.Sprintf("unknown sampler %T", s))
}

// table1Application converts a Table 1 profile into a schedulable
// application with its uncertainty (one load unit = 1 MB of input).
func table1Application(t Table1App) *model.Application {
	gamma := max(t.GammaPct/100, 0)
	return &model.Application{
		Name:         t.Name,
		TotalLoad:    units.Load(t.InputMB),
		BytesPerUnit: units.MB,
		UnitCost:     units.Seconds(t.RunTimeSec / t.InputMB),
		Gamma:        gamma,
		Uncertainty:  model.PerChunk,
		MinChunk:     1,
	}
}
