package model

import (
	"math"
	"strings"
	"testing"
)

func validPlatform() *Platform {
	return &Platform{
		Name: "test",
		Workers: []Worker{
			{ID: 0, Name: "a", Cluster: "c1", Speed: 1, Bandwidth: 1e6, CommLatency: 1, CompLatency: 0.5},
			{ID: 1, Name: "b", Cluster: "c1", Speed: 2, Bandwidth: 1e6, CommLatency: 1, CompLatency: 0.5},
			{ID: 2, Name: "c", Cluster: "c2", Speed: 0.5, Bandwidth: 2e6, CommLatency: 2, CompLatency: 0.1},
		},
	}
}

func validApp() *Application {
	return &Application{
		Name:         "app",
		TotalLoad:    1000,
		BytesPerUnit: 100,
		UnitCost:     0.5,
		Gamma:        0.1,
		MinChunk:     1,
	}
}

func TestPlatformValidateOK(t *testing.T) {
	if err := validPlatform().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlatformValidateErrors(t *testing.T) {
	cases := []struct {
		mutate func(*Platform)
		want   string
	}{
		{func(p *Platform) { p.Workers = nil }, "no workers"},
		{func(p *Platform) { p.Workers[1].ID = 5 }, "dense"},
		{func(p *Platform) { p.Workers[0].Speed = 0 }, "speed"},
		{func(p *Platform) { p.Workers[0].Speed = -1 }, "speed"},
		{func(p *Platform) { p.Workers[2].Bandwidth = 0 }, "bandwidth"},
		{func(p *Platform) { p.Workers[1].CommLatency = -1 }, "latency"},
		{func(p *Platform) { p.Workers[1].CompLatency = -0.1 }, "latency"},
		{func(p *Platform) {
			p.Workers[0].Background = &BackgroundLoad{MeanOn: 0, MeanOff: 1, Share: 0.5}
		}, "sojourn"},
		{func(p *Platform) {
			p.Workers[0].Background = &BackgroundLoad{MeanOn: 1, MeanOff: 1, Share: 1}
		}, "share"},
	}
	for i, c := range cases {
		p := validPlatform()
		c.mutate(p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: Validate() = %v, want error containing %q", i, err, c.want)
		}
	}
}

func TestBackgroundValidateOK(t *testing.T) {
	bg := &BackgroundLoad{MeanOn: 60, MeanOff: 120, Share: 0.5}
	if err := bg.Validate(); err != nil {
		t.Fatal(err)
	}
	zero := &BackgroundLoad{MeanOn: 60, MeanOff: 120, Share: 0}
	if err := zero.Validate(); err != nil {
		t.Errorf("zero share should be valid: %v", err)
	}
}

func TestClusters(t *testing.T) {
	got := validPlatform().Clusters()
	if len(got) != 2 || got[0] != "c1" || got[1] != "c2" {
		t.Errorf("Clusters() = %v, want [c1 c2]", got)
	}
}

func TestApplicationValidateOK(t *testing.T) {
	if err := validApp().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplicationValidateErrors(t *testing.T) {
	cases := []struct {
		mutate func(*Application)
		want   string
	}{
		{func(a *Application) { a.TotalLoad = 0 }, "total load"},
		{func(a *Application) { a.BytesPerUnit = -1 }, "density"},
		{func(a *Application) { a.UnitCost = 0 }, "unit cost"},
		{func(a *Application) { a.Gamma = -0.1 }, "gamma"},
		{func(a *Application) { a.MinChunk = -1 }, "min chunk"},
		{func(a *Application) { a.MinChunk = 2000 }, "exceeds total"},
	}
	for i, c := range cases {
		a := validApp()
		c.mutate(a)
		err := a.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: Validate() = %v, want error containing %q", i, err, c.want)
		}
	}
}

func TestInputBytesAndSequentialTime(t *testing.T) {
	a := validApp()
	if got := a.InputBytes(); got != 100000 {
		t.Errorf("InputBytes = %v, want 100000", got)
	}
	if got := a.SequentialTime(); got != 500 {
		t.Errorf("SequentialTime = %v, want 500", got)
	}
}

func TestPlatformRatioHomogeneous(t *testing.T) {
	p := &Platform{Name: "h", Workers: []Worker{
		{ID: 0, Speed: 1, Bandwidth: 1e4},
		{ID: 1, Speed: 1, Bandwidth: 1e4},
	}}
	a := validApp()
	if got := PlatformRatio(a, p); math.Abs(got-50) > 1e-9 {
		t.Errorf("PlatformRatio = %g, want 50", got)
	}
}

func TestTrueEstimates(t *testing.T) {
	p := validPlatform()
	a := validApp()
	ests := TrueEstimates(nil, a, p)
	if len(ests) != 3 {
		t.Fatalf("got %d estimates", len(ests))
	}
	// Worker 1 has Speed 2 → unit compute = 0.5/2 = 0.25.
	if got := ests[1].UnitComp; math.Abs(got-0.25) > 1e-12 {
		t.Errorf("worker 1 UnitComp = %g, want 0.25", got)
	}
	// Worker 2: 100 bytes per unit over 2e6 B/s = 5e-5 s/unit.
	if got := ests[2].UnitComm; math.Abs(got-5e-5) > 1e-18 {
		t.Errorf("worker 2 UnitComm = %g, want 5e-5", got)
	}
	if ests[0].CommLatency != 1 || ests[0].CompLatency != 0.5 {
		t.Error("latencies not copied")
	}
	for i, e := range ests {
		if e.Worker != i {
			t.Errorf("estimate %d has worker %d", i, e.Worker)
		}
		if err := e.Validate(); err != nil {
			t.Errorf("estimate %d invalid: %v", i, err)
		}
	}
}

func TestEstimateValidate(t *testing.T) {
	bad := Estimate{Worker: 0, UnitComp: 0}
	if bad.Validate() == nil {
		t.Error("zero UnitComp accepted")
	}
	neg := Estimate{Worker: 0, UnitComp: 1, UnitComm: -1}
	if neg.Validate() == nil {
		t.Error("negative UnitComm accepted")
	}
}

func TestBySpeed(t *testing.T) {
	ests := []Estimate{
		{Worker: 0, UnitComp: 0.5},
		{Worker: 1, UnitComp: 0.25},
		{Worker: 2, UnitComp: 1.0},
	}
	order := BySpeed(ests)
	if order[0] != 1 || order[1] != 0 || order[2] != 2 {
		t.Errorf("BySpeed = %v, want [1 0 2]", order)
	}
}

func TestBySpeedStableOnTies(t *testing.T) {
	ests := []Estimate{
		{Worker: 0, UnitComp: 1},
		{Worker: 1, UnitComp: 1},
		{Worker: 2, UnitComp: 1},
	}
	order := BySpeed(ests)
	for i, w := range order {
		if w != i {
			t.Errorf("tied speeds reordered: %v", order)
		}
	}
}

func TestUncertaintyModeString(t *testing.T) {
	if PerChunk.String() != "per-chunk" || PerUnit.String() != "per-unit" {
		t.Error("UncertaintyMode strings wrong")
	}
	if UncertaintyMode(9).String() == "" {
		t.Error("unknown mode should still render")
	}
}
