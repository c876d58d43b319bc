// Package workload defines the applications and platforms of the paper's
// evaluation: the Table 1 real-application profiles, the tunable
// synthetic application of §4, the MPEG-4 encoding case study of §5, and
// the four testbeds (DAS-2, Meteor, the mixed Grid, and the GRAIL LAN).
//
// All values are calibrated to the constants the paper reports — start-up
// costs, effective bandwidths, communication/computation ratios r, and
// uncertainty levels γ — so the experiment harness reproduces the shape
// of every figure. See DESIGN.md for the derivations.
package workload

import (
	"fmt"
	"math"

	"apstdv/internal/model"
	"apstdv/internal/units"
)

// Synthetic returns the §4 synthetic application ("reads in an input file
// and does some floating point operations in a loop"), tunable in its
// communication/computation ratio and uncertainty γ.
//
// The default calibration uses one load unit = 1 kB of input, a 240 MB
// input, and a per-unit compute cost chosen so that r ≈ 37 against the
// DAS-2 bandwidth and r ≈ 46 against Meteor's — the same single
// application yields both of the paper's reported ratios, exactly as in
// the paper (the two clusters differ in bandwidth, not in the app).
func Synthetic(gamma float64) *model.Application {
	return &model.Application{
		Name:         syntheticName(gamma),
		TotalLoad:    240000, // units of 1 kB → 240 MB input
		BytesPerUnit: 1000,   // 1 kB per unit
		UnitCost:     0.402,  // s/unit ⇒ 26.8 CPU-hours total
		Gamma:        gamma,
		Uncertainty:  model.PerChunk,
		MinChunk:     10, // the XML example's stepsize: cuts every 10 units
	}
}

// syntheticNames holds Synthetic's name for every whole percent from 0
// to 100, built once: the experiments build a fresh application per run.
var syntheticNames = func() (names [101]string) {
	for pct := range names {
		names[pct] = fmt.Sprintf("synthetic(γ=%g%%)", float64(pct))
	}
	return names
}()

// syntheticName is Synthetic's name for gamma, from the table when
// gamma·100 is a whole percent (not −0, which %g prints with its sign)
// and formatted otherwise.
func syntheticName(gamma float64) string {
	pct := gamma * 100
	if k := int(pct); float64(k) == pct && k >= 0 && k < len(syntheticNames) && !math.Signbit(pct) {
		return syntheticNames[k]
	}
	return fmt.Sprintf("synthetic(γ=%g%%)", pct)
}

// SyntheticWithRatio returns a synthetic application whose r against the
// given reference rate is exactly ratio, keeping the default input size.
// Used by the algorithm-tour example and the r×γ sweeps.
func SyntheticWithRatio(ratio, gamma float64, rate units.Rate) *model.Application {
	a := Synthetic(gamma)
	// r = seqTime / (inputBytes/rate)  ⇒  unitCost = r·bytesPerUnit/rate.
	a.Name = fmt.Sprintf("synthetic(r=%g,γ=%g%%)", ratio, gamma*100)
	a.UnitCost = units.Seconds(ratio * float64(a.BytesPerUnit) / float64(rate))
	return a
}

// CaseStudy returns the §5 MPEG-4 encoding application: a 209 MB DV
// video of 1,830 frames (one load unit = one frame), encoded with
// mencoder on the GRAIL workstations. γ here is the *application's*
// intrinsic variability (MPEG ≈ 10% per Table 1); the further
// uncertainty of the non-dedicated hosts comes from the GRAIL platform's
// background load, and the two together produce the measured γ ≈ 20%.
func CaseStudy() *model.Application {
	return &model.Application{
		Name:         "mpeg4-encode",
		TotalLoad:    1830,                      // frames (load="1830" in Fig. 6)
		BytesPerUnit: units.Bytes(209e6) / 1830, // ≈114 kB per DV frame
		UnitCost:     2.5,                       // s/frame on a 1.73 GHz Athlon XP
		Gamma:        0.10,
		Uncertainty:  model.PerChunk,
		MinChunk:     1, // avisplit cuts at frame boundaries
	}
}

// CaseStudyProbeLoad is the probe file of the case study: probe.avi,
// 21 frames (probe_load="21" in Fig. 6).
const CaseStudyProbeLoad = 21

// Table1App is one row of the paper's Table 1.
type Table1App struct {
	Name       string
	InputMB    float64
	RunTimeSec float64 // on the reference 1.8 GHz Athlon
	R          float64 // reported r at the 10 MB/s effective rate
	GammaPct   float64 // reported γ in percent (-1 = N/A)
	SpreadPct  float64 // reported (max-min)/mean in percent (-1 = N/A)
	// Sampler generates per-unit compute times reproducing γ and the
	// spread (one unit = 1 MB of input).
	Sampler UnitCostSampler
}

// Table1 returns the paper's four profiled applications. The samplers
// are calibrated so that measured γ and spread land on the reported
// values: HMMER's enormous 2700% spread with only 9% CV comes from rare
// extreme units (a few monster sequences among hundreds of thousands),
// modelled as a two-point mixture; MPEG and VFleet are well modelled by
// the truncated Normal the paper uses for its synthetic app.
func Table1() []Table1App {
	return []Table1App{
		{
			Name: "HMMER", InputMB: 802.0, RunTimeSec: 534, R: 6.7, GammaPct: 9, SpreadPct: 2700,
			Sampler: MixtureSampler{Mean: 534.0 / 802.0, OutlierFactor: 27, OutlierProb: 1.11e-5, BaseCV: 0.005},
		},
		{
			Name: "MPEG", InputMB: 716.8, RunTimeSec: 2494, R: 34.8, GammaPct: 10, SpreadPct: 30,
			Sampler: NormalSampler{Mean: 2494.0 / 716.8, CV: 0.10, ClampSpread: 0.30},
		},
		{
			Name: "VFleet", InputMB: 87.5, RunTimeSec: 600, R: 68.0, GammaPct: 1, SpreadPct: 2,
			Sampler: NormalSampler{Mean: 600.0 / 87.5, CV: 0.01, ClampSpread: 0.02},
		},
		{
			Name: "Data Mining", InputMB: 400.0, RunTimeSec: 3150, R: 78.0, GammaPct: -1, SpreadPct: -1,
			Sampler: NormalSampler{Mean: 3150.0 / 400.0, CV: 0},
		},
	}
}

// Table1ReferenceRate is the effective transfer rate the paper computes r
// against ("assuming a 100Mb/sec network", evaluated at 10 MB/s — the
// reported r values only reproduce at that effective rate).
const Table1ReferenceRate units.Rate = 10e6
