package workload

import (
	"math"

	"apstdv/internal/rng"
)

// UnitCostSampler draws per-unit compute times for a Table 1 profile,
// used to reproduce the table's measured γ and spread columns.
type UnitCostSampler interface {
	// Sample returns one unit's compute time in seconds.
	Sample(src *rng.Source) float64
}

// NormalSampler draws from a truncated Normal — the model the paper uses
// for its synthetic application's unit costs. When ClampSpread > 0,
// samples are clamped to mean·(1 ± ClampSpread/2) so the measured
// (max-min)/mean matches a bounded-support application like MPEG or
// VFleet (whose frames vary, but boundedly).
type NormalSampler struct {
	Mean        float64
	CV          float64
	ClampSpread float64
}

// Sample implements UnitCostSampler.
func (n NormalSampler) Sample(src *rng.Source) float64 {
	if n.CV <= 0 {
		return n.Mean
	}
	x := src.TruncNormal(n.Mean, n.CV*n.Mean, n.Mean/10)
	if n.ClampSpread > 0 {
		lo := n.Mean * (1 - n.ClampSpread/2)
		hi := n.Mean * (1 + n.ClampSpread/2)
		x = math.Max(lo, math.Min(hi, x))
	}
	return x
}

// MixtureSampler models rare extreme units: with probability OutlierProb
// a unit costs OutlierFactor times the mean; all others follow a tight
// Normal. This reproduces HMMER's Table 1 row, where the spread is 2700%
// (a handful of monster sequences) while the CV stays near 9% because
// the outliers are so rare.
type MixtureSampler struct {
	Mean          float64
	OutlierFactor float64
	OutlierProb   float64
	BaseCV        float64
}

// Sample implements UnitCostSampler.
func (m MixtureSampler) Sample(src *rng.Source) float64 {
	if src.Float64() < m.OutlierProb {
		return m.Mean * m.OutlierFactor
	}
	base := m.baseMean()
	if m.BaseCV <= 0 {
		return base
	}
	return src.TruncNormal(base, m.BaseCV*base, base/10)
}

// baseMean keeps the overall mean at Mean despite the outlier mass.
func (m MixtureSampler) baseMean() float64 {
	return m.Mean * (1 - m.OutlierProb*m.OutlierFactor) / (1 - m.OutlierProb)
}
